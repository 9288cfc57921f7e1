// Liveclust: run the real two-layer stack — NEWSCAST sampling under the
// bootstrapping service — on the concurrent goroutine runtime with message
// loss and latency, then hand the result to a Pastry router. Unlike the
// other examples this one runs on wall-clock time with one goroutine per
// host, the shape an actual deployment would take.
//
//	go run ./examples/liveclust
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/livenet"
	"repro/internal/newscast"
	"repro/internal/overlay/pastry"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/truth"
)

const (
	numHosts = 96
	period   = 15 * time.Millisecond
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "liveclust:", err)
		os.Exit(1)
	}
}

func run() error {
	net := livenet.New(livenet.Config{
		Seed:       9,
		Drop:       0.10,
		MinLatency: time.Millisecond,
		MaxLatency: 4 * time.Millisecond,
	})
	defer net.Close()

	ids := id.Unique(numHosts, 10)
	descs := make([]peer.Descriptor, numHosts)
	hosts := make([]*livenet.Host, numHosts)
	for i := 0; i < numHosts; i++ {
		hosts[i] = net.AddHost()
		descs[i] = peer.Descriptor{ID: ids[i], Addr: hosts[i].Addr()}
	}
	seedContacts := sampling.NewOracle(descs, 11)

	cfg := core.DefaultConfig()
	nodes := make([]*core.Node, numHosts)
	for i := 0; i < numHosts; i++ {
		nc := newscast.New(descs[i], seedContacts.Sample(5), newscast.DefaultViewSize)
		if err := hosts[i].Attach(newscast.ProtoID, nc, period, time.Duration(i)*period/numHosts); err != nil {
			return err
		}
		nd, err := core.NewNode(descs[i], cfg, nc)
		if err != nil {
			return err
		}
		nodes[i] = nd
		offset := 5*period + time.Duration(i)*period/numHosts
		if err := hosts[i].Attach(core.ProtoID, nd, period, offset); err != nil {
			return err
		}
	}

	fmt.Printf("running %d concurrent hosts (10%% loss, 1-4ms latency, period %v)\n",
		numHosts, period)
	if err := net.Start(); err != nil {
		return err
	}
	time.Sleep(40 * period)

	// Crash a block of hosts mid-run and bring them back a few periods
	// later with their state intact — the crash-recovery churn the
	// campaign runner (cmd/livesim) scales up to whole scenarios.
	const crashed = numHosts / 10
	for i := 0; i < crashed; i++ {
		hosts[i].Kill()
	}
	fmt.Printf("crashed %d hosts; letting the survivors gossip...\n", crashed)
	time.Sleep(10 * period)
	for i := 0; i < crashed; i++ {
		if err := hosts[i].Respawn(); err != nil {
			return err
		}
	}
	fmt.Printf("respawned them; letting the overlay repair...\n")
	time.Sleep(20 * period)
	net.Close() // stop the world before reading protocol state

	tr, err := truth.New(ids, cfg.B, cfg.K, cfg.C)
	if err != nil {
		return err
	}
	members := make([]truth.Member, numHosts)
	for i, nd := range nodes {
		members[i] = truth.Member{Self: descs[i].ID, Leaf: nd.Leaf(), Table: nd.Table()}
	}
	agg := tr.MeasureAll(members, 0)
	st := net.Snapshot()
	fmt.Printf("after ~70 periods (incl. crash/recovery): leaf missing %.4f, prefix missing %.4f\n",
		float64(agg.LeafMissing)/float64(agg.LeafTotal), float64(agg.PrefixMissing)/float64(agg.PrefixTotal))
	fmt.Printf("traffic: sent %d, dropped %d (%.1f%%), delivered %d, inbox overflow %d\n",
		st.Sent, st.Dropped, 100*float64(st.Dropped)/float64(st.Sent), st.Delivered, st.Overflow)

	// Route a few keys over whatever was built.
	routers := make([]*pastry.Router, numHosts)
	for i, nd := range nodes {
		routers[i] = pastry.FromBootstrap(nd)
	}
	mesh := pastry.NewMesh(routers, 0)
	rng := rand.New(rand.NewSource(12))
	ok, total := 0, 200
	for i := 0; i < total; i++ {
		key := id.ID(rng.Uint64())
		path, err := mesh.Route(descs[rng.Intn(numHosts)].Addr, key)
		if err != nil {
			continue
		}
		if path[len(path)-1] == ringClosest(descs, key).Addr {
			ok++
		}
	}
	fmt.Printf("pastry routing over the live-built tables: %d/%d keys reached their root\n", ok, total)
	return nil
}

func ringClosest(descs []peer.Descriptor, key id.ID) peer.Descriptor {
	best := descs[0]
	for _, d := range descs[1:] {
		if id.CompareRing(key, d.ID, best.ID) < 0 {
			best = d
		}
	}
	return best
}
