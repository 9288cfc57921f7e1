package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livenet"
)

func quickLiveParams(n, cycles int) LiveParams {
	return LiveParams{
		N:      n,
		Config: core.DefaultConfig(),
		Period: 5 * time.Millisecond,
		Cycles: cycles,
	}
}

func TestLiveParamsValidate(t *testing.T) {
	good := quickLiveParams(16, 5)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*LiveParams)
	}{
		{"tiny N", func(p *LiveParams) { p.N = 1 }},
		{"zero cycles", func(p *LiveParams) { p.Cycles = 0 }},
		{"drop out of range", func(p *LiveParams) { p.Drop = 1 }},
		{"negative drop", func(p *LiveParams) { p.Drop = -0.1 }},
		{"negative period", func(p *LiveParams) { p.Period = -time.Second }},
		{"negative latency", func(p *LiveParams) { p.MaxLatency = -time.Millisecond }},
		{"negative measure workers", func(p *LiveParams) { p.MeasureWorkers = -1 }},
		{"negative warmup", func(p *LiveParams) { p.WarmupCycles = -1 }},
		{"bad config", func(p *LiveParams) { p.Config.C = 3 }},
		{"shard out of range", func(p *LiveParams) { p.Sockets = &Sockets{Procs: 2, Proc: 2, BasePort: 19000} }},
		{"negative shard", func(p *LiveParams) { p.Sockets = &Sockets{Proc: -1, BasePort: 19000} }},
		{"newscast over sockets", func(p *LiveParams) { p.Sockets = &Sockets{BasePort: 19000}; p.Sampler = SamplerNewscast }},
		{"sampled sharded measurement", func(p *LiveParams) { p.Sockets = &Sockets{Procs: 2, BasePort: 19000}; p.MeasureSample = 4 }},
	}
	for _, tc := range cases {
		p := good
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	sock := good
	sock.Sockets = &Sockets{Procs: 2, Proc: 1, BasePort: 19000}
	if err := sock.Validate(); err != nil {
		t.Errorf("valid socket placement rejected: %v", err)
	}
	if _, err := RunLive(sock, 1); err == nil {
		t.Error("RunLive accepted one shard of a two-process campaign")
	}
	sock.Sockets, sock.MeasureSample = &Sockets{Procs: 1, BasePort: 19000}, 4
	if _, err := OpenLiveShard(sock, 1); err == nil {
		t.Error("OpenLiveShard accepted sampled measurement, which a shard never takes")
	}
}

func TestLiveRunConvergesFailureFree(t *testing.T) {
	res, err := RunLive(quickLiveParams(32, 25), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Errorf("failure-free live run did not converge: final %+v", res.Final())
	}
	if len(res.Points) == 0 {
		t.Fatal("no measurement points")
	}
	if got := res.Final().Alive; got != 32 {
		t.Errorf("alive = %d, want 32", got)
	}
	if st := res.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
		t.Errorf("counters not conserved: %+v", st)
	}
}

// TestLiveNewscastSamplerConverges runs the full two-layer stack on the
// concurrent runtime: NEWSCAST gossips on every host, the bootstrap layer
// samples its decentralized view through the newscast.Sampler adapter —
// no oracle on the data plane at all. Sampled measurement rides along so
// the whole new measurement path runs under -race in the live CI job.
func TestLiveNewscastSamplerConverges(t *testing.T) {
	p := quickLiveParams(48, 40)
	p.Period = 20 * time.Millisecond
	p.Sampler = SamplerNewscast
	p.WarmupCycles = 5
	p.MeasureSample = 24
	res, err := RunLive(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Errorf("two-layer live stack did not converge: final %+v", res.Final())
	}
	if st := res.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
		t.Errorf("counters not conserved: %+v", st)
	}
}

func TestLiveTrialsChurnCampaign(t *testing.T) {
	p := quickLiveParams(48, 16)
	p.Scenario = livenet.ScenarioChurn
	p.KeepRunningAfterPerfect = true
	p.MemStats = true
	res, err := RunLiveTrials(p, Seeds(11, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 3 {
		t.Fatalf("got %d trials, want 3", len(res.Trials))
	}
	if res.Workers != 2 {
		t.Errorf("resolved Workers = %d, want 2", res.Workers)
	}
	if res.HeapBaseline == 0 {
		t.Error("campaign baseline is 0")
	}
	if res.HeapPeak() < res.HeapBaseline {
		t.Errorf("campaign peak %d below baseline %d", res.HeapPeak(), res.HeapBaseline)
	}
	for i, tr := range res.Trials {
		if tr.HeapBytes == 0 {
			t.Errorf("trial %d: HeapBytes not sampled under MemStats", i)
		}
		if tr.HeapBytes > res.HeapPeak() {
			t.Errorf("trial %d: heap sample %d above campaign peak %d", i, tr.HeapBytes, res.HeapPeak())
		}
		if tr.Killed == 0 || tr.Respawned == 0 {
			t.Errorf("trial %d: churn scenario applied no lifecycle events (killed=%d respawned=%d)",
				i, tr.Killed, tr.Respawned)
		}
		if tr.Killed != tr.Respawned {
			t.Errorf("trial %d: killed=%d != respawned=%d; schedule must pair waves with respawns",
				i, tr.Killed, tr.Respawned)
		}
		if len(tr.Points) != p.Cycles {
			t.Errorf("trial %d: %d points, want %d (KeepRunningAfterPerfect)", i, len(tr.Points), p.Cycles)
		}
		if got := tr.Final().Alive; got != p.N {
			t.Errorf("trial %d: final alive = %d, want %d after last respawn", i, got, p.N)
		}
		if st := tr.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
			t.Errorf("trial %d: counters not conserved: %+v", i, st)
		}
		if len(tr.Schedule) == 0 {
			t.Errorf("trial %d: empty fault schedule under churn scenario", i)
		}
	}
	if len(res.Agg) != p.Cycles {
		t.Errorf("aggregate series has %d cycles, want %d", len(res.Agg), p.Cycles)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != p.Cycles+1 {
		t.Errorf("CSV has %d lines, want %d (header + cycles)", len(lines), p.Cycles+1)
	}
	if !strings.HasPrefix(lines[0], "cycle,trials,") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
}

func TestLiveSchedulesDifferAcrossTrials(t *testing.T) {
	p := quickLiveParams(32, 12)
	p.Scenario = livenet.ScenarioChurn
	p.KeepRunningAfterPerfect = true
	res, err := RunLiveTrials(p, Seeds(5, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	a := livenet.TraceSchedule(res.Trials[0].Schedule)
	b := livenet.TraceSchedule(res.Trials[1].Schedule)
	if a == b {
		t.Error("two trial seeds produced the identical fault plan")
	}
}

// TestLiveScenariosOnBothLinks runs the same seeded campaigns through
// RunLive over the in-memory link and over loopback sockets: one trial
// driver, one scenario executor, two links.
func TestLiveScenariosOnBothLinks(t *testing.T) {
	links := []struct {
		name    string
		sockets *Sockets
	}{
		{"livenet", nil},
		{"sockets", &Sockets{BasePort: 19440}},
	}
	for _, link := range links {
		t.Run(link.name+"/partition", func(t *testing.T) {
			p := quickLiveParams(32, 24)
			p.Sockets = link.sockets
			p.Scenario = livenet.ScenarioPartition
			p.KeepRunningAfterPerfect = true
			res, err := RunLive(p, 9)
			if err != nil {
				t.Fatal(err)
			}
			// During the cut the global structures cannot be perfect (the
			// oracle still samples both sides but messages across the
			// boundary drop); after healing they must recover. Assert
			// recovery rather than the exact degradation, which depends on
			// scheduling.
			final := res.Final()
			if final.LeafMissing > 0.05 || final.PrefixMissing > 0.05 {
				t.Errorf("no recovery after heal: final leaf=%e prefix=%e", final.LeafMissing, final.PrefixMissing)
			}
			if st := res.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
				t.Errorf("counters not conserved: %+v", st)
			}
			if st := res.Stats; st.Dropped == 0 {
				t.Error("partition scenario dropped no messages")
			}
		})
		t.Run(link.name+"/churn", func(t *testing.T) {
			p := quickLiveParams(48, 16)
			p.Sockets = link.sockets
			p.Scenario = livenet.ScenarioChurn
			p.KeepRunningAfterPerfect = true
			res, err := RunLive(p, 11)
			if err != nil {
				t.Fatal(err)
			}
			if res.Killed == 0 || res.Killed != res.Respawned {
				t.Errorf("killed=%d respawned=%d; the schedule pairs every wave with a respawn", res.Killed, res.Respawned)
			}
			if len(res.Points) != p.Cycles {
				t.Errorf("%d points, want %d (KeepRunningAfterPerfect)", len(res.Points), p.Cycles)
			}
			if got := res.Final().Alive; got != p.N {
				t.Errorf("final alive = %d, want %d after last respawn", got, p.N)
			}
			if st := res.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
				t.Errorf("counters not conserved: %+v", st)
			}
		})
		t.Run(link.name+"/latency", func(t *testing.T) {
			p := quickLiveParams(32, 24)
			p.Sockets = link.sockets
			p.Scenario = livenet.ScenarioLatency
			p.KeepRunningAfterPerfect = true
			res, err := RunLive(p, 13)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Schedule) == 0 {
				t.Fatal("latency scenario planned no spike")
			}
			// The spikes hold arrivals for two to ten periods; once the
			// window is back to none the structures must recover.
			final := res.Final()
			if final.LeafMissing > 0.05 || final.PrefixMissing > 0.05 {
				t.Errorf("no recovery after the last spike: final leaf=%e prefix=%e", final.LeafMissing, final.PrefixMissing)
			}
			if st := res.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
				t.Errorf("counters not conserved: %+v", st)
			}
		})
	}
}

func TestLiveTrialsRejectsBadInput(t *testing.T) {
	if _, err := RunLiveTrials(quickLiveParams(16, 4), nil, 2); err == nil {
		t.Error("empty seed list accepted")
	}
	bad := quickLiveParams(1, 4)
	if _, err := RunLiveTrials(bad, Seeds(1, 2), 2); err == nil {
		t.Error("invalid params accepted")
	}
}
