package simnet

import (
	"math"
	"testing"

	"repro/internal/peer"
	"repro/internal/proto"
)

// echoProto replies to every ping with a pong and counts what it sees.
type echoProto struct {
	inited int
	ticks  int
	got    []string
	pingOn peer.Addr // if set, ping this address every tick
}

type testMsg struct {
	kind string
	size int
}

func (m testMsg) WireSize() int { return m.size }

func (p *echoProto) Init(ctx proto.Context) { p.inited++ }

func (p *echoProto) Tick(ctx proto.Context) {
	p.ticks++
	if p.pingOn != peer.NoAddr {
		ctx.Send(p.pingOn, testMsg{kind: "ping", size: 1})
	}
}

func (p *echoProto) Handle(ctx proto.Context, from peer.Addr, msg Message) {
	m := msg.(testMsg)
	p.got = append(p.got, m.kind)
	if m.kind == "ping" {
		ctx.Send(from, testMsg{kind: "pong", size: 1})
	}
}

func TestTickScheduling(t *testing.T) {
	n := New(Config{Seed: 1})
	a := n.AddNode()
	p := &echoProto{pingOn: peer.NoAddr}
	if err := n.Attach(a, 1, p, 10, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(100)
	if p.inited != 1 {
		t.Errorf("inited = %d, want 1", p.inited)
	}
	// Init at 0, ticks at 10,20,...,100 -> 10 ticks.
	if p.ticks != 10 {
		t.Errorf("ticks = %d, want 10", p.ticks)
	}
}

func TestStartOffsetStaggersTicks(t *testing.T) {
	n := New(Config{Seed: 1})
	a := n.AddNode()
	p := &echoProto{pingOn: peer.NoAddr}
	if err := n.Attach(a, 1, p, 10, 7); err != nil {
		t.Fatal(err)
	}
	n.Run(100)
	// Init at 7, ticks at 17,27,...,97 -> 9 ticks.
	if p.ticks != 9 {
		t.Errorf("ticks = %d, want 9", p.ticks)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	n := New(Config{Seed: 1})
	a, b := n.AddNode(), n.AddNode()
	pa := &echoProto{pingOn: b}
	pb := &echoProto{pingOn: peer.NoAddr}
	if err := n.Attach(a, 1, pa, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(b, 1, pb, 0, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(50)
	n.Run(55) // drain messages still in flight at the horizon
	if len(pb.got) == 0 || pb.got[0] != "ping" {
		t.Fatalf("b saw %v, want pings", pb.got)
	}
	if len(pa.got) == 0 || pa.got[0] != "pong" {
		t.Fatalf("a saw %v, want pongs", pa.got)
	}
	st := n.Stats()
	if st.Sent != st.Delivered || st.Dropped != 0 {
		t.Errorf("lossless run should deliver all: %+v", st)
	}
	if st.WireUnits != st.Sent {
		t.Errorf("wire units = %d, want %d (1 per message)", st.WireUnits, st.Sent)
	}
}

func TestDropRateStatistics(t *testing.T) {
	n := New(Config{Seed: 42, Drop: 0.2})
	a, b := n.AddNode(), n.AddNode()
	pa := &echoProto{pingOn: b}
	pb := &echoProto{pingOn: peer.NoAddr}
	if err := n.Attach(a, 1, pa, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(b, 1, pb, 0, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(20000)
	st := n.Stats()
	rate := float64(st.Dropped) / float64(st.Sent)
	if math.Abs(rate-0.2) > 0.02 {
		t.Errorf("drop rate %.3f, want ~0.2 (sent=%d dropped=%d)", rate, st.Sent, st.Dropped)
	}
}

// TestPairLossMatchesAnalysis validates the paper's Section 5 claim: with a
// 20% uniform drop probability and request/answer message pairs, the
// expected overall loss of messages is 28%, because a dropped request
// suppresses the answer entirely.
func TestPairLossMatchesAnalysis(t *testing.T) {
	n := New(Config{Seed: 7, Drop: 0.2})
	a, b := n.AddNode(), n.AddNode()
	pa := &echoProto{pingOn: b}
	pb := &echoProto{pingOn: peer.NoAddr}
	if err := n.Attach(a, 1, pa, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(b, 1, pb, 0, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(50000)
	requests := float64(pa.ticks)
	// Of the information flow (2 messages per exchange attempted), the
	// fraction that fails is 1 - (delivered pings + delivered pongs) /
	// (2 * requests). Delivered pings = len(pb.got); pongs = len(pa.got).
	loss := 1 - float64(len(pb.got)+len(pa.got))/(2*requests)
	if math.Abs(loss-0.28) > 0.02 {
		t.Errorf("pair loss %.3f, want ~0.28", loss)
	}
}

func TestKillSilencesNode(t *testing.T) {
	n := New(Config{Seed: 1})
	a, b := n.AddNode(), n.AddNode()
	pa := &echoProto{pingOn: b}
	pb := &echoProto{pingOn: peer.NoAddr}
	if err := n.Attach(a, 1, pa, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(b, 1, pb, 0, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(35)
	seen := len(pb.got)
	if seen == 0 {
		t.Fatal("no traffic before kill")
	}
	n.Kill(b)
	if n.Alive(b) {
		t.Error("b should be dead")
	}
	n.Run(100)
	if len(pb.got) != seen {
		t.Errorf("dead node handled %d more messages", len(pb.got)-seen)
	}
	if n.Stats().DeadDest == 0 {
		t.Error("expected dead-destination accounting")
	}
}

func TestKillStopsTicks(t *testing.T) {
	n := New(Config{Seed: 1})
	a := n.AddNode()
	p := &echoProto{pingOn: peer.NoAddr}
	if err := n.Attach(a, 1, p, 10, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(25)
	ticks := p.ticks
	n.Kill(a)
	n.Run(200)
	if p.ticks != ticks {
		t.Errorf("dead node ticked %d more times", p.ticks-ticks)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]string, Stats) {
		n := New(Config{Seed: 99, Drop: 0.3, MinLatency: 1, MaxLatency: 9})
		a, b := n.AddNode(), n.AddNode()
		pa := &echoProto{pingOn: b}
		pb := &echoProto{pingOn: a}
		_ = n.Attach(a, 1, pa, 3, 0)
		_ = n.Attach(b, 1, pb, 5, 2)
		n.Run(1000)
		return append(pa.got, pb.got...), n.Stats()
	}
	g1, s1 := run()
	g2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(g1) != len(g2) {
		t.Fatalf("trace length diverged: %d vs %d", len(g1), len(g2))
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("trace diverged at %d: %s vs %s", i, g1[i], g2[i])
		}
	}
}

func TestLatencyBounds(t *testing.T) {
	n := New(Config{Seed: 5, MinLatency: 3, MaxLatency: 8})
	a, b := n.AddNode(), n.AddNode()
	var deliveredAt []int64
	pb := &recorderProto{onMsg: func(now int64) { deliveredAt = append(deliveredAt, now) }}
	if err := n.Attach(b, 1, pb, 0, 0); err != nil {
		t.Fatal(err)
	}
	pa := &echoProto{pingOn: b}
	if err := n.Attach(a, 1, pa, 10, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(500)
	if len(deliveredAt) == 0 {
		t.Fatal("nothing delivered")
	}
	for _, at := range deliveredAt {
		lat := at % 10 // pings are sent exactly at multiples of 10
		if lat < 3 || lat > 8 {
			t.Fatalf("latency %d outside [3, 8]", lat)
		}
	}
}

type recorderProto struct {
	onMsg func(now int64)
}

func (p *recorderProto) Init(proto.Context) {}
func (p *recorderProto) Tick(proto.Context) {}
func (p *recorderProto) Handle(ctx proto.Context, _ peer.Addr, _ Message) {
	p.onMsg(ctx.Now())
}

func TestAtSchedulesFunctions(t *testing.T) {
	n := New(Config{Seed: 1})
	var times []int64
	n.At(30, func() { times = append(times, n.Now()) })
	n.At(10, func() { times = append(times, n.Now()) })
	n.Run(100)
	if len(times) != 2 || times[0] != 10 || times[1] != 30 {
		t.Errorf("got %v, want [10 30]", times)
	}
}

func TestAttachErrors(t *testing.T) {
	n := New(Config{Seed: 1})
	a := n.AddNode()
	p := &echoProto{pingOn: peer.NoAddr}
	if err := n.Attach(peer.Addr(42), 1, p, 10, 0); err == nil {
		t.Error("attach to unknown address should fail")
	}
	if err := n.Attach(a, 1, p, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(a, 1, p, 10, 0); err == nil {
		t.Error("duplicate protocol binding should fail")
	}
}

func TestLinkFaultAndPartition(t *testing.T) {
	n := New(Config{Seed: 9})
	a, b, c := n.AddNode(), n.AddNode(), n.AddNode()
	pa := &echoProto{pingOn: b}
	pb := &echoProto{pingOn: c}
	pc := &echoProto{pingOn: peer.NoAddr}
	for _, bind := range []struct {
		addr peer.Addr
		p    *echoProto
	}{{a, pa}, {b, pb}, {c, pc}} {
		if err := n.Attach(bind.addr, 1, bind.p, 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Partition {a} | {b, c}: a<->b cut, b<->c open. b still receives
	// pongs from c (intra-partition), but never a ping from a.
	n.Partition([]peer.Addr{a}, []peer.Addr{b, c})
	n.Run(100)
	for _, kind := range pb.got {
		if kind == "ping" {
			t.Error("b received a ping across the partition")
		}
	}
	if len(pc.got) == 0 {
		t.Error("intra-partition traffic should flow")
	}
	if n.Stats().Dropped == 0 {
		t.Error("partition drops should be accounted")
	}
	// Heal: pings from a reach b again.
	n.SetLinkFault(nil)
	n.Run(200)
	pings := 0
	for _, kind := range pb.got {
		if kind == "ping" {
			pings++
		}
	}
	if pings == 0 {
		t.Error("healed link still silent")
	}
}
