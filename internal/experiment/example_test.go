package experiment_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiment"
)

// ExampleRun jump-starts a 1000-node prefix overlay from scratch on the
// simulated network, with only the peer sampling service working, and
// prints the per-cycle convergence of the leaf sets and prefix tables — a
// miniature of the paper's Figure 3.
func ExampleRun() {
	cfg := core.DefaultConfig() // b=4, k=3, c=20, cr=30 — the paper's set
	res, err := experiment.Run(experiment.Params{
		N:         1000,
		Seed:      1,
		Config:    cfg,
		MaxCycles: 40,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	fmt.Println("bootstrapping a 1000-node prefix overlay from scratch")
	fmt.Printf("parameters: b=%d k=%d c=%d cr=%d\n\n", cfg.B, cfg.K, cfg.C, cfg.CR)
	fmt.Println("cycle  leaf-missing  prefix-missing  perfect-nodes")
	for _, pt := range res.Points {
		fmt.Printf("%5d  %12.2e  %14.2e  %6d/%d\n",
			pt.Cycle, pt.LeafMissing, pt.PrefixMissing, pt.PrefixPerfect, pt.Alive)
	}
	if res.ConvergedAt < 0 {
		fmt.Printf("did not converge within %d cycles\n", res.Params.MaxCycles)
		return
	}
	fmt.Printf("\nperfect leaf sets and prefix tables at ALL nodes after %d cycles\n", res.ConvergedAt+1)
	fmt.Printf("traffic: %d messages, %d descriptor units\n", res.Stats.Sent, res.Stats.WireUnits)
	// Output:
	// bootstrapping a 1000-node prefix overlay from scratch
	// parameters: b=4 k=3 c=20 cr=30
	//
	// cycle  leaf-missing  prefix-missing  perfect-nodes
	//     0      9.79e-01        1.00e+00       0/1000
	//     1      8.53e-01        4.53e-01       0/1000
	//     2      5.30e-01        2.18e-01       1/1000
	//     3      1.59e-01        5.55e-02     234/1000
	//     4      1.91e-02        7.15e-03     786/1000
	//     5      1.65e-03        8.31e-04     963/1000
	//     6      2.00e-04        1.35e-04     994/1000
	//     7      0.00e+00        1.12e-05     999/1000
	//     8      0.00e+00        0.00e+00    1000/1000
	//
	// perfect leaf sets and prefix tables at ALL nodes after 9 cycles
	// traffic: 16106 messages, 1765210 descriptor units
}
