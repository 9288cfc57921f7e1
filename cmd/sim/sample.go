package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/aggregate"
	"repro/internal/broadcast"
	"repro/internal/id"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/sampling"
)

// sampleDelta is the gossip period of the sampling-layer campaigns.
const sampleDelta = 10

// runSelfHeal reproduces the Section 3 self-healing property of NEWSCAST:
// kill a large fraction of the network and track the proportion of dead
// entries in surviving views per cycle.
func runSelfHeal(o *options, out io.Writer) error {
	if o.fail < 0 || o.fail >= 1 {
		return fmt.Errorf("-fail must be in [0, 1), got %v", o.fail)
	}
	n := o.n()
	net, descs := simnetWorld(n, o.seed)
	protos := make([]*newscast.Protocol, n)
	for i, d := range descs {
		// Star initialisation: every view starts with node 0 alone.
		protos[i] = newscast.New(d, []peer.Descriptor{descs[0]}, newscast.DefaultViewSize)
		_ = net.Attach(d.Addr, newscast.ProtoID, protos[i], sampleDelta, int64(i)*sampleDelta/int64(n))
	}
	warm := int64(15)
	net.Run(sampleDelta * warm)

	nKill := int(float64(n) * o.fail)
	dead := make(map[id.ID]bool, nKill)
	for i := 0; i < nKill; i++ {
		dead[descs[i].ID] = true
		net.Kill(descs[i].Addr)
	}
	fmt.Fprintf(out, "# experiment=selfheal n=%d killed=%d (%.0f%%)\n", n, nKill, o.fail*100)
	fmt.Fprintln(out, "cycle,dead_view_fraction,full_views_fraction")
	for cycle := 0; cycle < o.cycles; cycle++ {
		net.Run(sampleDelta * (warm + int64(cycle) + 1))
		var deadRefs, total, full int
		for _, p := range protos[nKill:] {
			view := p.View()
			if len(view) == p.ViewSize() {
				full++
			}
			for _, d := range view {
				total++
				if dead[d.ID] {
					deadRefs++
				}
			}
		}
		fmt.Fprintf(out, "%d,%e,%e\n", cycle,
			float64(deadRefs)/float64(total),
			float64(full)/float64(n-nKill))
	}
	return nil
}

// runStartSpread measures the broadcast start-signal skew distribution —
// the basis of the paper's loosely-synchronised-start assumption.
func runStartSpread(o *options, out io.Writer) error {
	n := o.n()
	net, descs := simnetWorld(n, o.seed)
	oracle := sampling.NewOracle(descs, o.seed+2)
	protos := make([]*broadcast.Protocol, n)
	for i, d := range descs {
		p, err := broadcast.New(d, broadcast.DefaultConfig(), oracle, nil)
		if err != nil {
			return err
		}
		protos[i] = p
		if err := net.Attach(d.Addr, broadcast.ProtoID, p, sampleDelta, int64(i)*sampleDelta/int64(n)); err != nil {
			return err
		}
	}
	// The start signal goes out once the first period has elapsed.
	net.Run(sampleDelta)
	net.Send(descs[0].Addr, descs[0].Addr, broadcast.ProtoID, broadcast.Rumor{Seq: 1, Payload: "start"})
	net.Run(sampleDelta * int64(o.cycles))

	var times []int64
	for _, p := range protos {
		if at, ok := p.Delivered(1); ok {
			times = append(times, at)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	fmt.Fprintf(out, "# experiment=startspread n=%d covered=%d/%d\n", n, len(times), n)
	if len(times) == 0 {
		return errors.New("rumor reached nobody")
	}
	fmt.Fprintln(out, "percentile,delay_in_periods")
	base := times[0]
	for _, pct := range []float64{0.5, 0.9, 0.99, 1.0} {
		idx := max(int(math.Ceil(pct*float64(len(times))))-1, 0)
		fmt.Fprintf(out, "p%.0f,%.2f\n", pct*100, float64(times[idx]-base)/sampleDelta)
	}
	return nil
}

// runSizeEst runs gossip averaging for size estimation over the sampling
// oracle and reports the estimate trajectory at a probe node.
func runSizeEst(o *options, out io.Writer) error {
	n := o.n()
	net, descs := simnetWorld(n, o.seed)
	oracle := sampling.NewOracle(descs, o.seed+2)
	protos := make([]*aggregate.Protocol, n)
	for i, d := range descs {
		initial := 0.0
		if i == 0 {
			initial = 1.0
		}
		p, err := aggregate.New(d, oracle, initial)
		if err != nil {
			return err
		}
		protos[i] = p
		if err := net.Attach(d.Addr, aggregate.ProtoID, p, sampleDelta, int64(i)*sampleDelta/int64(n)); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "# experiment=sizeest n=%d\n", n)
	fmt.Fprintln(out, "cycle,probe_estimate,min_estimate,max_estimate")
	for cycle := 0; cycle < o.cycles; cycle++ {
		net.Run(sampleDelta * int64(cycle+1))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range protos {
			est := p.SizeEstimate()
			if est == 0 {
				continue
			}
			lo = math.Min(lo, est)
			hi = math.Max(hi, est)
		}
		fmt.Fprintf(out, "%d,%.1f,%.1f,%.1f\n", cycle, protos[n/2].SizeEstimate(), lo, hi)
	}
	return nil
}
