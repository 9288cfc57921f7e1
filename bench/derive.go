package main

// kindMetrics maps span kinds to the per-layer timing metric each feeds:
// the metric is the median self time of the kind's spans, in the metric's
// unit (perUnit nanoseconds).
var kindMetrics = []struct {
	kind    spanKind
	name    string
	perUnit float64
}{
	{spCoreTick, "core.tick_ns", 1},
	{spCoreHandle, "core.handle_ns", 1},
	{spCoreNew, "core.new_node_us", 1e3},
	{spSample, "sampling.append_sample_ns", 1},
	{spOracleUpdate, "sampling.oracle_update_us", 1e3},
	{spNewscastTick, "newscast.tick_ns", 1},
	{spNewscastHandle, "newscast.handle_ns", 1},
	{spSend, "engine.send_ns", 1},
	{spSimKill, "simnet.kill_us", 1e3},
	{spLivePause, "livenet.pause_all_ms", 1e6},
	{spLiveResume, "livenet.resume_all_ms", 1e6},
	{spLiveRespawn, "livenet.respawn_us", 1e3},
	{spLiveStart, "livenet.start_ms", 1e6},
	{spLiveClose, "livenet.close_ms", 1e6},
	{spSockStart, "transport.start_ms", 1e6},
	{spSockQuiesce, "transport.quiesce_ms", 1e6},
	{spTruthNew, "truth.new_ms", 1e6},
	{spTruthMeasureAll, "truth.measure_all_ms", 1e6},
	{spTruthMeasureSample, "truth.measure_sample_ms", 1e6},
	{spTruthUpdate, "truth.update_us", 1e3},
	{spPastryFrom, "pastry.from_bootstrap_ms", 1e6},
	{spDHTNew, "dht.new_cluster_ms", 1e6},
	{spDHTRemove, "dht.remove_us", 1e3},
	{spDHTJoin, "dht.join_us", 1e3},
	{spLoadPreload, "load.preload_ms", 1e6},
}

// busyLayers are the layers whose share of the traced wall is reported.
// On the concurrent engines callbacks overlap, so a share can pass 1.
var busyLayers = []string{"core", "sampling", "newscast", "simnet", "truth", "bench"}

// traceCommon reports every metric that follows from the span summary
// alone. wallNS is the traced wall time the busy shares are taken of.
func traceCommon(res *result, s *summary, wallNS float64) {
	for _, km := range kindMetrics {
		st := &s.kinds[km.kind]
		if len(st.selfs) == 0 {
			continue
		}
		scaled := make([]float64, len(st.selfs))
		for i, v := range st.selfs {
			scaled[i] = v / km.perUnit
		}
		res.set(km.name, scaled...)
	}
	for _, layer := range busyLayers {
		if self, ok := s.layerSelf[layer]; ok {
			res.set(layer+".busy_frac", float64(self)/wallNS)
		}
	}
}
