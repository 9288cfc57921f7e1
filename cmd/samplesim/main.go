// Command samplesim exercises the lower layers of the architecture: the
// NEWSCAST peer sampling service (Section 3) and the components built
// directly on it (gossip broadcast, aggregation).
//
//	samplesim -experiment selfheal     # view recovery after 70% failure
//	samplesim -experiment startspread  # broadcast start-signal skew
//	samplesim -experiment sizeest      # gossip network-size estimation
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/aggregate"
	"repro/internal/broadcast"
	"repro/internal/id"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "samplesim:", err)
		os.Exit(1)
	}
}

type options struct {
	experiment string
	n          int
	cycles     int
	seed       int64
	delta      int64
	failFrac   float64
}

func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("samplesim", flag.ContinueOnError)
	var (
		expName  = fs.String("experiment", "selfheal", "selfheal|startspread|sizeest")
		n        = fs.Int("n", 2000, "network size")
		cycles   = fs.Int("cycles", 60, "cycles to run")
		seed     = fs.Int64("seed", 42, "random seed")
		failFrac = fs.Float64("fail", 0.7, "fraction killed in the selfheal experiment")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *n < 2 {
		return nil, fmt.Errorf("-n must be at least 2, got %d", *n)
	}
	if *failFrac < 0 || *failFrac >= 1 {
		return nil, fmt.Errorf("-fail must be in [0, 1), got %v", *failFrac)
	}
	return &options{
		experiment: *expName,
		n:          *n,
		cycles:     *cycles,
		seed:       *seed,
		delta:      10,
		failFrac:   *failFrac,
	}, nil
}

func run(args []string, out io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	switch o.experiment {
	case "selfheal":
		return runSelfHeal(o, out)
	case "startspread":
		return runStartSpread(o, out)
	case "sizeest":
		return runSizeEst(o, out)
	default:
		return fmt.Errorf("unknown experiment %q", o.experiment)
	}
}

// buildNewscast wires n NEWSCAST nodes with star initialisation.
func buildNewscast(o *options) (*simnet.Network, []*newscast.Protocol, []peer.Descriptor) {
	net := simnet.New(simnet.Config{Seed: o.seed})
	ids := id.Unique(o.n, o.seed+1)
	descs := make([]peer.Descriptor, o.n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	protos := make([]*newscast.Protocol, o.n)
	for i, d := range descs {
		protos[i] = newscast.New(d, []peer.Descriptor{descs[0]}, newscast.DefaultViewSize)
		_ = net.Attach(d.Addr, newscast.ProtoID, protos[i], o.delta, int64(i)*o.delta/int64(o.n))
	}
	return net, protos, descs
}

// runSelfHeal reproduces the Section 3 self-healing property: kill a large
// fraction of the network and track the proportion of dead entries in
// surviving views per cycle.
func runSelfHeal(o *options, out io.Writer) error {
	net, protos, descs := buildNewscast(o)
	warm := int64(15)
	net.Run(o.delta * warm)

	nKill := int(float64(o.n) * o.failFrac)
	dead := make(map[id.ID]bool, nKill)
	for i := 0; i < nKill; i++ {
		dead[descs[i].ID] = true
		net.Kill(descs[i].Addr)
	}
	fmt.Fprintf(out, "# experiment=selfheal n=%d killed=%d (%.0f%%)\n", o.n, nKill, o.failFrac*100)
	fmt.Fprintln(out, "cycle,dead_view_fraction,full_views_fraction")
	for cycle := 0; cycle < o.cycles; cycle++ {
		net.Run(o.delta * (warm + int64(cycle) + 1))
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
			float64(full)/float64(o.n-nKill))
	}
	return nil
}

// runStartSpread measures the broadcast start-signal skew distribution —
// the basis of the paper's loosely-synchronised-start assumption.
func runStartSpread(o *options, out io.Writer) error {
	net := simnet.New(simnet.Config{Seed: o.seed})
	ids := id.Unique(o.n, o.seed+1)
	descs := make([]peer.Descriptor, o.n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	oracle := sampling.NewOracle(descs, o.seed+2)
	protos := make([]*broadcast.Protocol, o.n)
	for i, d := range descs {
		p, err := broadcast.New(d, broadcast.DefaultConfig(), oracle, nil)
		if err != nil {
			return err
		}
		protos[i] = p
		if err := net.Attach(d.Addr, broadcast.ProtoID, p, o.delta, int64(i)*o.delta/int64(o.n)); err != nil {
			return err
		}
	}
	// The start signal goes out once the first period has elapsed.
	net.Run(o.delta)
	net.Send(descs[0].Addr, descs[0].Addr, broadcast.ProtoID, broadcast.Rumor{Seq: 1, Payload: "start"})
	net.Run(o.delta * int64(o.cycles))

	var times []int64
	for _, p := range protos {
		if at, ok := p.Delivered(1); ok {
			times = append(times, at)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	fmt.Fprintf(out, "# experiment=startspread n=%d covered=%d/%d\n", o.n, len(times), o.n)
	if len(times) == 0 {
		return fmt.Errorf("rumor reached nobody")
	}
	fmt.Fprintln(out, "percentile,delay_in_periods")
	base := times[0]
	for _, pct := range []float64{0.5, 0.9, 0.99, 1.0} {
		idx := int(math.Ceil(pct*float64(len(times)))) - 1
		if idx < 0 {
			idx = 0
		}
		fmt.Fprintf(out, "p%.0f,%.2f\n", pct*100, float64(times[idx]-base)/float64(o.delta))
	}
	return nil
}

// runSizeEst runs gossip averaging for size estimation over the sampling
// oracle and reports the estimate trajectory at a probe node.
func runSizeEst(o *options, out io.Writer) error {
	net := simnet.New(simnet.Config{Seed: o.seed})
	ids := id.Unique(o.n, o.seed+1)
	descs := make([]peer.Descriptor, o.n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	oracle := sampling.NewOracle(descs, o.seed+2)
	protos := make([]*aggregate.Protocol, o.n)
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
		if err := net.Attach(d.Addr, aggregate.ProtoID, p, o.delta, int64(i)*o.delta/int64(o.n)); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "# experiment=sizeest n=%d\n", o.n)
	fmt.Fprintln(out, "cycle,probe_estimate,min_estimate,max_estimate")
	for cycle := 0; cycle < o.cycles; cycle++ {
		net.Run(o.delta * int64(cycle+1))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range protos {
			est := p.SizeEstimate()
			if est == 0 {
				continue
			}
			lo = math.Min(lo, est)
			hi = math.Max(hi, est)
		}
		fmt.Fprintf(out, "%d,%.1f,%.1f,%.1f\n", cycle, protos[o.n/2].SizeEstimate(), lo, hi)
	}
	return nil
}
