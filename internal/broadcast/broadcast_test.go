package broadcast

import (
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
)

func buildNetwork(t testing.TB, n int, seed int64, drop float64) (*simnet.Network, []*Protocol, []peer.Descriptor) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: seed, Drop: drop})
	ids := id.Unique(n, seed+10)
	descs := make([]peer.Descriptor, n)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: net.AddNode()}
	}
	oracle := sampling.NewOracle(descs, seed+20)
	protos := make([]*Protocol, n)
	for i, d := range descs {
		p, err := New(d, oracle)
		if err != nil {
			t.Fatal(err)
		}
		protos[i] = p
		if err := net.Attach(d.Addr, ProtoID, p, 10, int64(i%10)); err != nil {
			t.Fatal(err)
		}
	}
	return net, protos, descs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(peer.Descriptor{ID: 1}, nil); err == nil {
		t.Error("nil sampler accepted")
	}
}

// TestFullCoverage: a rumor injected at one node reaches everyone within a
// logarithmic number of periods.
func TestFullCoverage(t *testing.T) {
	const n = 500
	net, protos, _ := buildNetwork(t, n, 1, 0)
	net.Run(5)
	ctxInject(net, protos[0], Rumor{Seq: 1, Payload: "start"})
	net.Run(10 * 20)
	covered := 0
	for _, p := range protos {
		if _, ok := p.Delivered(1); ok {
			covered++
		}
	}
	if covered != n {
		t.Errorf("coverage %d/%d after 20 periods", covered, n)
	}
}

// ctxInject injects a rumor from the harness, between Run calls. The
// Protocol API needs a Context, which only the network can mint, so we reuse
// the node's Handle path via a self-addressed message.
func ctxInject(net *simnet.Network, p *Protocol, r Rumor) {
	net.Send(p.self.Addr, p.self.Addr, ProtoID, r)
}

// TestCoverageUnderDrop: 20% loss slows but does not stop dissemination.
func TestCoverageUnderDrop(t *testing.T) {
	const n = 300
	net, protos, _ := buildNetwork(t, n, 2, 0.2)
	net.Run(5)
	ctxInject(net, protos[0], Rumor{Seq: 7, Payload: "start"})
	net.Run(10 * 30)
	covered := 0
	for _, p := range protos {
		if _, ok := p.Delivered(7); ok {
			covered++
		}
	}
	if covered < n*99/100 {
		t.Errorf("coverage %d/%d under 20%% drop", covered, n)
	}
}

// TestStartSkewBounded: the spread between the first and last reception —
// the start skew the bootstrap protocol must tolerate — stays within a few
// periods, supporting the paper's loosely-synchronised-start assumption.
func TestStartSkewBounded(t *testing.T) {
	const n, period = 400, 10
	net, protos, _ := buildNetwork(t, n, 3, 0)
	ctxInject(net, protos[0], Rumor{Seq: 9, Payload: "start"})
	net.Run(period * 30)
	var first, last int64 = 1 << 62, -1
	for _, p := range protos {
		at, ok := p.Delivered(9)
		if !ok {
			t.Fatal("incomplete coverage")
		}
		if at < first {
			first = at
		}
		if at > last {
			last = at
		}
	}
	skew := last - first
	if skew > 10*period {
		t.Errorf("start skew %d exceeds 10 periods", skew)
	}
}

// TestDeliverOnce: a rumor is delivered at its first reception; a later
// copy of the same Seq changes nothing.
func TestDeliverOnce(t *testing.T) {
	net, protos, _ := buildNetwork(t, 50, 4, 0)
	p, err := New(peer.Descriptor{ID: 999999, Addr: net.AddNode()}, sampling.Fixed(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(p.self.Addr, ProtoID, p, 10, 0); err != nil {
		t.Fatal(err)
	}
	net.Send(protos[0].self.Addr, p.self.Addr, ProtoID, Rumor{Seq: 3})
	net.Run(50)
	first, ok := p.Delivered(3)
	if !ok {
		t.Fatal("rumor not delivered")
	}
	net.Send(protos[0].self.Addr, p.self.Addr, ProtoID, Rumor{Seq: 3})
	net.Run(100)
	if at, _ := p.Delivered(3); at != first {
		t.Errorf("second copy re-delivered the rumor at %d, first at %d", at, first)
	}
}

func TestHandleIgnoresForeign(t *testing.T) {
	net, protos, _ := buildNetwork(t, 10, 5, 0)
	net.Send(0, protos[0].self.Addr, ProtoID, "garbage")
	net.Run(50) // must not panic
}
