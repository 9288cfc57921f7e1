package livenet

import (
	"testing"
	"time"

	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/testenv"
)

// pinger sends a message to a random host on every tick.
type pinger struct{ targets []peer.Addr }

func (p *pinger) Init(proto.Context) {}
func (p *pinger) Tick(ctx proto.Context) {
	ctx.Send(p.targets[ctx.Rand().Intn(len(p.targets))], "ping")
}
func (p *pinger) Handle(proto.Context, peer.Addr, proto.Message) {}

// TestLiveStatsConservation drives traffic over the in-memory link through
// every loss path — the drop model, latency (arrivals held by a killed
// host, or at Close), a tiny inbox (overflow), and a killed host — and
// checks that after Close Sent == Delivered + Dropped + Overflow.
// internal/host's TestLifecycleLossPathsRetireOnce checks the same law on
// both links with counting messages; this case pins it on livenet's own
// constructor and link.
func TestLiveStatsConservation(t *testing.T) {
	const n = 8
	net := New(Config{Seed: 21, Drop: 0.3, InboxSize: 4})
	net.SetLatency(time.Millisecond, 3*time.Millisecond)
	hosts := make([]*Host, n)
	addrs := make([]peer.Addr, n)
	for i := range hosts {
		hosts[i] = net.AddHost()
		addrs[i] = hosts[i].Addr()
	}
	for i, h := range hosts {
		if err := h.Attach(9, &pinger{targets: addrs}, 2*time.Millisecond, time.Duration(i)*time.Millisecond/4); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Start(); err != nil {
		t.Fatal(err)
	}
	testenv.Await(t, "a delivery", func() bool { return net.Snapshot().Delivered > 0 })
	dropped := net.Snapshot().Dropped
	hosts[0].Kill()
	testenv.Await(t, "a drop after the kill", func() bool { return net.Snapshot().Dropped > dropped })
	net.Close()

	st := net.Snapshot()
	if st.Sent != st.Delivered+st.Dropped+st.Overflow {
		t.Errorf("counter conservation violated after Close: sent=%d != delivered=%d + dropped=%d + overflow=%d",
			st.Sent, st.Delivered, st.Dropped, st.Overflow)
	}
	if st.Dropped == 0 {
		t.Error("drop=0.3 recorded no drops")
	}
	if h := net.Held(); h != 0 {
		t.Errorf("%d arrivals still held after Close", h)
	}
}
