package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/testenv"
	"repro/internal/wire"
)

// seqMessage builds a message whose Sender.ID carries a sequence number
// and whose size is set by the entry count.
func seqMessage(from peer.Addr, seq, entries int) *core.Message {
	m := core.NewMessage()
	m.Sender = peer.Descriptor{ID: id.ID(seq), Addr: from}
	for i := 0; i < entries; i++ {
		m.Entries = append(m.Entries, peer.Descriptor{ID: id.ID(i), Addr: peer.Addr(i)})
	}
	return m
}

// burst sends count sequenced messages to one host, back to back on its
// host's goroutine: all of them from Init, or perTick of them every tick.
type burst struct {
	to             peer.Addr
	count, entries int
	perTick, sent  int
}

func (b *burst) Init(ctx proto.Context) {
	if b.perTick == 0 {
		b.send(ctx, b.count)
	}
}
func (b *burst) Tick(ctx proto.Context)                         { b.send(ctx, b.perTick) }
func (b *burst) Handle(proto.Context, peer.Addr, proto.Message) {}

func (b *burst) send(ctx proto.Context, k int) {
	for ; k > 0 && b.sent < b.count; k-- {
		ctx.Send(b.to, seqMessage(ctx.Self(), b.sent, b.entries))
		b.sent++
	}
}

// arrival is what a recorder keeps of one delivered message.
type arrival struct {
	from         peer.Addr
	seq, entries int
}

// recorder logs every arrival in delivery order.
type recorder struct {
	mu  sync.Mutex
	got []arrival
}

func (r *recorder) Init(proto.Context) {}
func (r *recorder) Tick(proto.Context) {}
func (r *recorder) Handle(_ proto.Context, from peer.Addr, msg proto.Message) {
	m := msg.(*core.Message)
	r.mu.Lock()
	r.got = append(r.got, arrival{from, int(m.Sender.ID), len(m.Entries)})
	r.mu.Unlock()
}

func (r *recorder) arrivals() []arrival {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]arrival(nil), r.got...)
}

// newShard builds one process of a campaign with the given protocol on
// each listed host, ticking every millisecond, and nothing on the others.
func newShard(t *testing.T, cfg Config, protos map[peer.Addr]proto.Protocol) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	for _, h := range n.LocalHosts() {
		if p := protos[h.Addr()]; p != nil {
			if err := h.Attach(core.ProtoID, p, time.Millisecond, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

func mustStart(t *testing.T, n *Network) {
	t.Helper()
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
}

// frames encodes count sequenced frames of the given entry count into one
// buffer, the way a peer's pending buffer holds them.
func frames(to peer.Addr, count, entries int) []byte {
	var run []byte
	for seq := 0; seq < count; seq++ {
		m := seqMessage(0, seq, entries)
		run = wire.AppendFrame(run, wire.Envelope{From: 0, To: to, Pid: core.ProtoID}, m)
		m.Recycle()
	}
	return run
}

// TestWholeFrames pins the writer's retirement arithmetic: given how many
// bytes the kernel accepted, how many frames went out whole and where the
// resend starts.
func TestWholeFrames(t *testing.T) {
	run := frames(1, 1, 1)
	a := len(run) // end of the first frame
	run = append(run, frames(1, 1, 5)...)
	b := len(run) // end of the second
	run = append(run, frames(1, 1, 0)...)
	for _, tc := range []struct {
		name                 string
		n, frames, resendsAt int
	}{
		{"nothing", 0, 0, 0},
		{"mid-prefix of the first", 2, 0, 0},
		{"prefix only", 4, 0, 0},
		{"mid-payload of the first", a - 1, 0, 0},
		{"first boundary", a, 1, a},
		{"mid-prefix of the second", a + 3, 1, a},
		{"mid-payload of the second", b - 1, 1, a},
		{"second boundary", b, 2, b},
		{"one byte into the third", b + 1, 2, b},
		{"all", len(run), 3, len(run)},
	} {
		if got, at := wholeFrames(run, tc.n); got != tc.frames || at != tc.resendsAt {
			t.Errorf("%s: wholeFrames(run, %d) = (%d, %d), want (%d, %d)", tc.name, tc.n, got, at, tc.frames, tc.resendsAt)
		}
	}
}

// TestTransportQueueBoundAndCoalescing pins what QueueSize bounds and what
// the writer does with a full buffer. The peer is down, so the writer
// cannot take: the first QueueSize sends fill the pending buffer and each
// further one is an Overflow. When the peer comes up the whole buffer goes
// out as one run — one Write, two if the kernel cuts it.
func TestTransportQueueBoundAndCoalescing(t *testing.T) {
	const bound, extra = 8, 5
	cfg := Config{Seed: 11, N: 2, Procs: 2, BasePort: 19200, QueueSize: bound, MaxBackoff: 50 * time.Millisecond}
	n0 := newShard(t, cfg, map[peer.Addr]proto.Protocol{0: &burst{to: 1, count: bound + extra}})
	mustStart(t, n0)
	testenv.Await(t, "the burst", func() bool { return n0.Snapshot().Sent == bound+extra })
	if st := n0.Snapshot(); st.Overflow != extra || st.Dropped != 0 {
		t.Fatalf("peer down, %d sends into a bound of %d: %+v, want exactly %d Overflow", bound+extra, bound, st, extra)
	}
	if got := n0.sock.inflight.Load(); got != bound {
		t.Fatalf("inflight = %d with the peer down, want %d", got, bound)
	}

	cfg.Proc = 1
	rec := &recorder{}
	n1 := newShard(t, cfg, map[peer.Addr]proto.Protocol{1: rec})
	mustStart(t, n1)
	testenv.Await(t, "the queued frames", func() bool { return len(rec.arrivals()) == bound })
	for i, a := range rec.arrivals() {
		if a.seq != i {
			t.Fatalf("arrival %d has seq %d: the frames that fit are the first %d, in order", i, a.seq, bound)
		}
	}
	if got := n0.sock.inflight.Load(); got != 0 {
		t.Errorf("inflight = %d after delivery, want 0", got)
	}
	if fr, wr := n0.WriteStats(); fr != bound || wr < 1 || wr > 2 {
		t.Errorf("WriteStats = %d frames in %d writes, want %d frames in at most 2", fr, wr, bound)
	}
}

// TestTransportFIFOAcrossBatches: concurrent senders append to one pending
// buffer a tick's worth at a time and the writer ships it in however many
// runs the scheduler makes of it (logged); each (from, to) pair must still
// arrive complete and in order.
func TestTransportFIFOAcrossBatches(t *testing.T) {
	const senders, each = 4, 200
	cfg := Config{Seed: 12, N: 2 * senders, Procs: 2, BasePort: 19210, InboxSize: senders * each}
	protos := map[peer.Addr]proto.Protocol{}
	for i := 0; i < senders; i++ {
		protos[peer.Addr(2*i)] = &burst{to: 1, count: each, entries: 3, perTick: each / 20}
	}
	rec := &recorder{}
	cfg.Proc = 1
	n1 := newShard(t, cfg, map[peer.Addr]proto.Protocol{1: rec})
	mustStart(t, n1)
	cfg.Proc = 0
	n0 := newShard(t, cfg, protos)
	mustStart(t, n0)
	testenv.Await(t, "every frame", func() bool { return len(rec.arrivals()) == senders*each })
	next := map[peer.Addr]int{}
	for _, a := range rec.arrivals() {
		if a.seq != next[a.from] {
			t.Fatalf("from %d: got seq %d, want %d", a.from, a.seq, next[a.from])
		}
		next[a.from]++
	}
	fr, wr := n0.WriteStats()
	t.Logf("%d frames in %d writes", fr, wr)
	if fr != senders*each {
		t.Errorf("frames written = %d, want %d", fr, senders*each)
	}
}

// TestTransportResendAfterCut cuts a connection in the middle of a run.
// The test plays the peer process on a raw listener: it reads the
// handshake and a little more than one frame of a run far larger than the
// kernel will buffer, then closes. The writer must retire exactly the
// frames that went out whole and resend the rest whole and in order on
// the next connection, so the second stream decodes cleanly and carries a
// contiguous tail of the sequence up to its last frame.
func TestTransportResendAfterCut(t *testing.T) {
	const count, entries = 64, 40_000 // ~400 KB a frame, ~25 MB in all
	cfg := Config{Seed: 13, N: 2, Procs: 2, BasePort: 19220, MaxBackoff: 50 * time.Millisecond}
	l, err := net.Listen("tcp", "127.0.0.1:19221")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n0 := newShard(t, cfg, map[peer.Addr]proto.Protocol{0: &burst{to: 1, count: count, entries: entries}})
	mustStart(t, n0)

	accept := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		l.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(c)
		if _, err := br.Discard(handshakeLen); err != nil {
			t.Fatal(err)
		}
		return c, br
	}
	c1, br1 := accept()
	frame := len(frames(1, 1, entries))
	if _, err := br1.Discard(frame + frame/3); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2, br2 := accept()
	defer c2.Close()
	var buf, payload []byte
	first, want := -1, -1
	for want != count {
		c2.SetReadDeadline(time.Now().Add(10 * time.Second))
		if payload, buf, err = wire.ReadFrame(br2, buf); err != nil {
			t.Fatalf("second connection, expecting seq %d: %v", want, err)
		}
		_, m, err := wire.Decode(payload)
		if err != nil {
			t.Fatalf("second connection, expecting seq %d: %v — the resend did not start on a frame boundary", want, err)
		}
		seq, got := int(m.Sender.ID), len(m.Entries)
		m.Recycle()
		if first < 0 {
			first, want = seq, seq
		}
		if seq != want || got != entries {
			t.Fatalf("second connection: seq %d with %d entries, want seq %d with %d", seq, got, want, entries)
		}
		want++
	}
	if first < 1 {
		t.Errorf("second connection starts at seq %d: the frame read whole from the first was sent again", first)
	}
	testenv.Await(t, "the writer to retire the run", func() bool { return n0.sock.inflight.Load() == 0 })
	if fr, wr := n0.WriteStats(); fr != count || wr < 2 {
		t.Errorf("WriteStats = %d frames in %d writes, want %d frames in at least 2", fr, wr, count)
	}
	if st := n0.Snapshot(); st.Sent != count || st.Dropped != 0 || st.Overflow != 0 {
		t.Errorf("sender counters %+v: a cut connection must not give a frame a second outcome", st)
	}
}

// TestTransportCloseWithFramesPending closes a process while its hosts
// are sending to a peer that never came up: Send, the writer's dial loop
// and the shutdown drain interleave (run it under -race), and every frame
// stranded in the pending buffer is counted Dropped exactly once.
func TestTransportCloseWithFramesPending(t *testing.T) {
	cfg := Config{Seed: 14, N: 8, Procs: 2, BasePort: 19230, QueueSize: 64, MaxBackoff: 50 * time.Millisecond}
	protos := map[peer.Addr]proto.Protocol{}
	for addr := 0; addr < cfg.N; addr += 2 {
		protos[peer.Addr(addr)] = &oddPinger{n: cfg.N}
	}
	n0 := newShard(t, cfg, protos)
	mustStart(t, n0)
	testenv.Await(t, "the pending buffer to fill", func() bool { return n0.Snapshot().Overflow > 0 })
	n0.Close()
	st := n0.Snapshot()
	conserved(t, st)
	if st.Dropped != 64 || st.Delivered != 0 {
		t.Errorf("after Close: %+v, want the 64 pending frames Dropped and nothing delivered", st)
	}
	if got := n0.sock.inflight.Load(); got != 0 {
		t.Errorf("inflight = %d after Close, want 0", got)
	}
}

// oddPinger sends one message per tick to a random odd address: with two
// processes, always to the other one.
type oddPinger struct{ n int }

func (p *oddPinger) Init(proto.Context) {}
func (p *oddPinger) Tick(ctx proto.Context) {
	ctx.Send(peer.Addr(2*ctx.Rand().Intn(p.n/2)+1), seqMessage(ctx.Self(), 0, 1))
}
func (p *oddPinger) Handle(proto.Context, peer.Addr, proto.Message) {}

// TestTransportHostilePeer: a connection that never sends the handshake,
// or sends a wrong one, is closed by the server side and leaves nothing
// behind in conns.
func TestTransportHostilePeer(t *testing.T) {
	cfg := Config{Seed: 15, N: 1, Procs: 1, BasePort: 19240, DialTimeout: 100 * time.Millisecond}
	n := newShard(t, cfg, nil)
	mustStart(t, n)
	for _, tc := range []struct {
		name  string
		hello []byte
	}{
		{"silent", nil},
		{"half a handshake", handshakeMagic[:3]},
		{"wrong magic", []byte("HTTP/1.1")},
		{"wrong proc", append(handshakeMagic[:4:4], 9, 0, 0, 0)},
	} {
		c, err := net.Dial("tcp", "127.0.0.1:19240")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(tc.hello); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("%s: read = %v, want EOF from the server closing the connection", tc.name, err)
		}
		c.Close()
	}
	testenv.Await(t, "conns to empty", func() bool {
		n.sock.mu.Lock()
		defer n.sock.mu.Unlock()
		return len(n.sock.conns) == 0
	})
}

// TestReadFramesInPlaceAndOversize feeds the read loop a stream that mixes
// frames decoded in the reader's buffer with ones too large for it, then
// cuts it mid-frame: everything whole is delivered in order, the cut is
// not an outcome.
func TestReadFramesInPlaceAndOversize(t *testing.T) {
	rec := &recorder{}
	n := newShard(t, Config{Seed: 16, N: 1, Procs: 1, BasePort: 19250}, map[peer.Addr]proto.Protocol{0: rec})
	mustStart(t, n)
	sizes := []int{1, 160, 6000, 7000, 0, 60_000, 2} // entries; ~10 bytes each against a 64 KiB buffer
	var stream []byte
	for seq, entries := range sizes {
		m := seqMessage(0, seq, entries)
		stream = wire.AppendFrame(stream, wire.Envelope{From: 0, To: 0, Pid: core.ProtoID}, m)
		m.Recycle()
	}
	stream = append(stream, stream[:10]...) // a frame cut after ten bytes
	n.sock.readFrames(bufio.NewReaderSize(bytes.NewReader(stream), readBufSize))
	testenv.Await(t, "every whole frame", func() bool { return len(rec.arrivals()) == len(sizes) })
	for i, a := range rec.arrivals() {
		if a.seq != i || a.entries != sizes[i] {
			t.Errorf("arrival %d: seq %d with %d entries, want seq %d with %d", i, a.seq, a.entries, i, sizes[i])
		}
	}
	if st := n.Snapshot(); st.Dropped != 0 {
		t.Errorf("a stream cut mid-frame counted %d Dropped", st.Dropped)
	}

	// An undecodable frame is the one outcome the reader itself counts.
	bad := frames(0, 3, 1)
	bad[4] = wire.Version + 1
	n.sock.readFrames(bufio.NewReaderSize(bytes.NewReader(bad), readBufSize))
	if st := n.Snapshot(); st.Dropped != 1 {
		t.Errorf("undecodable frame: Dropped = %d, want 1", st.Dropped)
	}
}

// TestReadFramesAllocs pins the read loop at zero allocations per frame in
// steady state: frames are decoded where the reader holds them, into
// pooled messages. The frames are addressed to a host this process does
// not own, so each is retired on arrival and the pool stays warm.
func TestReadFramesAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	n, err := New(Config{Seed: 17, N: 2, Procs: 2, BasePort: 19260})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	stream := append(frames(1, 40, 1), frames(1, 40, 160)...)
	rd := bytes.NewReader(stream)
	br := bufio.NewReaderSize(rd, readBufSize)
	read := func() {
		rd.Reset(stream)
		br.Reset(rd)
		n.sock.readFrames(br)
	}
	read() // warm the message pool
	if avg := testing.AllocsPerRun(50, read); avg != 0 {
		t.Errorf("read loop: %v allocs per %d-frame stream, want 0", avg, 80)
	}
	if st := n.Snapshot(); st.Dropped < 80 {
		t.Fatalf("Dropped = %d: the frames were not read", st.Dropped)
	}
}
