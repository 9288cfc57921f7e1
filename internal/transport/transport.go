// Package transport is the third protocol engine: real sockets. Where
// simnet interleaves events deterministically and livenet hands pointers
// between goroutines, transport serialises every protocol message through
// the internal/wire codec and carries it over the kernel's TCP stack, so
// serialization cost, kernel backpressure, and real partial failure are
// measured rather than modeled.
//
// Topology is the coinkit-style port-indexed localhost shape: a campaign
// of N hosts is sharded across Procs OS processes; process p listens on
// BasePort+p and owns every host whose address satisfies addr % Procs ==
// p. Each process runs one peer loop per destination process (including
// itself — local traffic traverses the same loopback sockets, so every
// message pays the full encode/kernel/decode path) with dial-on-demand, a
// versioned handshake, a bounded pending buffer that the writer hands to
// the kernel a run of frames at a time, and reconnect under capped
// exponential backoff.
//
// The host model is not this package's: the one-goroutine-per-host runtime
// with its bounded inboxes, Attach/Kill/Respawn/Pause/Resume, per-binding
// tick coalescing, fault model (sender-side loss and partition,
// receiver-side latency) and traffic counters is internal/host, shared with livenet, so the experiment harness
// drives the goroutine engines through the same motions by construction.
// What lives here is the link under it: Config and its validation, framing
// and handshake, the peer loops, the accept and read loops, and Quiesce.
// Determinism is necessarily weaker than in memory: the kernel schedules
// packets, so only statistical convergence trends are reproducible
// (asserted by the cross-engine equivalence tests), not message
// interleavings.
//
// Accounting follows the runtime's conservation law. Every send is counted
// Sent and lands in exactly one outcome bucket: Delivered (dispatched to
// a protocol on the destination process), Overflow (bounced off a full
// pending buffer or a full destination inbox), or Dropped (sender-side
// fault model, dead/unknown destination, undecodable on arrival, or
// shutdown drain). Sends and outcomes are counted on
// different processes, so the law
//
//	ΣSent == ΣDelivered + ΣDropped + ΣOverflow
//
// holds for the sum over all processes, at quiescence (StopTicks +
// Quiesce, no connection failures during the drain); cmd/sim sock checks it
// at the end of every campaign.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Config parameterises one process's shard of the campaign network.
type Config struct {
	// Seed drives the per-host RNGs and the sender-side fault model.
	Seed int64
	// N is the total number of hosts across all processes.
	N int
	// Procs is the number of processes the campaign is sharded over;
	// zero selects 1 (single-process, still over real loopback sockets).
	Procs int
	// Proc is this process's shard index in [0, Procs).
	Proc int
	// BasePort indexes the localhost topology: process p listens on
	// BasePort+p.
	BasePort int
	// InboxSize bounds each host's message queue exactly (zero selects
	// host.DefaultInboxSize). It is a bound, not an allocation: an inbox
	// preallocates at most 16 slots and grows past them only while it
	// holds more.
	InboxSize int
	// QueueSize bounds, per destination process, the frames Send has
	// appended that the writer has not yet taken (zero selects 1024); the
	// run the writer holds, at most as many again, is not counted. It
	// takes only when connected and done writing, so the bound maps the
	// kernel's backpressure into Overflow: when a destination process
	// reads slower than we send, its TCP window closes, our writer stalls
	// in Write, the buffer fills, and further sends overflow instead of
	// blocking the protocol callback.
	QueueSize int
	// Drop is the sender-side per-message loss probability — the same
	// injected fault model the other engines expose, applied before a
	// frame reaches the socket so scenarios stay engine-portable.
	Drop float64
	// DialTimeout bounds one dial attempt (zero selects 2s).
	DialTimeout time.Duration
	// MaxBackoff caps the reconnect backoff (zero selects 2s).
	MaxBackoff time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	return cfg
}

// Validate checks the shard configuration.
func (cfg Config) Validate() error {
	c := cfg.withDefaults()
	if c.N < 1 {
		return errors.New("transport: N must be positive")
	}
	if c.Proc < 0 || c.Proc >= c.Procs {
		return fmt.Errorf("transport: Proc %d out of [0, %d)", c.Proc, c.Procs)
	}
	if c.BasePort <= 0 || c.BasePort+c.Procs > 65536 {
		return fmt.Errorf("transport: BasePort %d leaves no room for %d process ports", c.BasePort, c.Procs)
	}
	if c.Drop < 0 || c.Drop >= 1 {
		return fmt.Errorf("transport: Drop = %v out of [0, 1)", c.Drop)
	}
	return nil
}

// The host lifecycle types are internal/host's.
type (
	// Host is one node of the campaign owned by this process.
	Host = host.Host
	// Stats is a snapshot of this process's traffic counters; see the
	// package comment for the cross-process conservation law.
	Stats = host.Stats
)

// handshake framing: magic, wire version, and the dialing process index.
var handshakeMagic = [4]byte{'R', 'P', 'W', wire.Version}

const handshakeLen = 4 + 4 // magic + uint32 proc

// Network is one process's shard: the shared host runtime, holding the
// local hosts, over the sockets that carry their messages.
type Network struct {
	*host.Runtime
	sock *sockets
}

// sockets is transport's host.Link: the listener this process receives
// through and one peer loop per destination process.
type sockets struct {
	cfg   Config
	rt    *host.Runtime
	peers []*peerLoop
	wg    sync.WaitGroup // peer, accept and read loops
	stop  chan struct{}

	listener net.Listener

	mu      sync.Mutex
	conns   map[net.Conn]struct{} // guarded by mu: inbound conns for teardown
	closing bool                  // guarded by mu: no wg.Add once set

	// inflight counts frames Send has appended that are not yet handed
	// to the kernel (or dropped); Quiesce requires it to reach zero
	// before trusting counter stability. frames counts those handed
	// over, writes the Write calls that carried them.
	inflight, frames, writes atomic.Int64
}

// New builds the shard: every local host (addr % Procs == Proc) is
// allocated, ready for Attach; call Start to bind the sockets and run.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &sockets{
		cfg:   cfg,
		peers: make([]*peerLoop, cfg.Procs),
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	s.rt = host.New(cfg.Seed, cfg.Drop, cfg.InboxSize, s)
	for addr := 0; addr < cfg.N; addr++ {
		if addr%cfg.Procs == cfg.Proc {
			s.rt.AddHost()
		} else {
			s.rt.AddRemote()
		}
	}
	for p := 0; p < cfg.Procs; p++ {
		s.peers[p] = &peerLoop{
			s:    s,
			addr: fmt.Sprintf("127.0.0.1:%d", cfg.BasePort+p),
			wake: make(chan struct{}, 1),
		}
	}
	return &Network{Runtime: s.rt, sock: s}, nil
}

// WriteStats returns how many frames this process has handed to the kernel
// and in how many Write calls.
func (n *Network) WriteStats() (frames, writes int64) {
	return n.sock.frames.Load(), n.sock.writes.Load()
}

// Quiesce waits for this process's traffic to settle: no frames waiting
// for a writer, no arrival held for its latency, and the counters
// unchanged across several consecutive polls. Call StopTicks first (on every process of the campaign); with
// tick sources stopped the bootstrap protocol generates at most one reply
// per in-flight request, so traffic drains in bounded hops. Returns false
// on timeout.
func (n *Network) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	const needStable = 5
	stable := 0
	prev := n.Snapshot()
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		cur := n.Snapshot()
		if n.sock.inflight.Load() == 0 && n.Held() == 0 && cur == prev {
			if stable++; stable >= needStable {
				return true
			}
		} else {
			stable = 0
		}
		prev = cur
	}
	return false
}

// Start binds the listener and launches the accept loop and the peer
// writers.
func (s *sockets) Start() error {
	bind := fmt.Sprintf("127.0.0.1:%d", s.cfg.BasePort+s.cfg.Proc)
	l, err := net.Listen("tcp", bind)
	if err != nil {
		return fmt.Errorf("transport: bind %s: %w", bind, err)
	}
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop(l)
	for _, p := range s.peers {
		s.wg.Add(1)
		go p.run()
	}
	return nil
}

// Send serialises the message straight into the pending buffer of the
// destination process's peer loop and wakes its writer if the buffer was
// empty. Serialisation is the sending side's retirement point: once the
// bytes are built the message is recycled — the receiving process decodes
// into its own pooled message, so the two sides never share storage (they
// may not even share an address space). The bound is checked first, so a
// send that overflows costs a lock and a counter, not an encode.
//
// Payload types the wire codec does not understand take the loopback
// shortcut when the destination is process-local (direct inbox delivery,
// pointer handoff as under livenet) and panic when it is not: shipping an
// unserialisable payload across processes is an engine-contract violation,
// not a runtime condition.
func (s *sockets) Send(from, to peer.Addr, pid proto.ProtoID, msg proto.Message) {
	m, ok := msg.(*core.Message)
	if !ok {
		if !s.rt.Local(to) {
			panic(fmt.Sprintf("transport: payload %T has no wire encoding and host %d is remote", msg, to))
		}
		s.rt.Deliver(from, to, pid, msg)
		return
	}
	p := s.peers[int(to)%s.cfg.Procs]
	p.mu.Lock()
	if p.frames >= s.cfg.QueueSize {
		// The destination process is reading slower than we produce —
		// kernel backpressure surfaced as Overflow.
		p.mu.Unlock()
		s.rt.Overflow(m)
		return
	}
	p.pend = wire.AppendFrame(p.pend, wire.Envelope{From: from, To: to, Pid: pid}, m)
	p.frames++
	first := p.frames == 1
	s.inflight.Add(1)
	p.mu.Unlock()
	m.Recycle()
	if first {
		select {
		case p.wake <- struct{}{}:
		default: // a wakeup is already pending; the writer will take this frame with it
		}
	}
}

// peerLoop is the sending side of one process-to-process link: a bounded
// buffer of encoded frames every local sender appends to, emptied by a
// writer goroutine that dials on demand and reconnects under backoff.
type peerLoop struct {
	s    *sockets
	addr string
	wake chan struct{} // 1 slot: pend went from empty to non-empty

	mu     sync.Mutex
	pend   []byte // guarded by mu: whole frames appended by Send, not yet taken by the writer
	frames int    // guarded by mu: how many
}

const initialBackoff = 20 * time.Millisecond

// run is the writer goroutine. The unit in flight is a run of frames, not
// a frame: woken by the first append, the writer connects if it has to,
// yields once, takes everything appended so far by swapping pend with its
// spare buffer, and hands the run to the kernel in one Write. The yield is
// what makes the run long: the senders already runnable when the first
// frame lands append before the take, and with nothing else runnable it
// returns at once — the batch follows the load, with no timer to add
// latency and no size or interval to tune.
//
// A short or failed write closes the connection; the frames the kernel
// took whole are retired and the cut frame and everything behind it go out
// again, whole and in order, on the next connection (the receiver drops a
// partial frame with the connection it came on), so every frame keeps a
// single outcome. While the peer is down the dial loop backs off with the
// frames held; at shutdown whatever is held or pending drains as dropped.
func (p *peerLoop) run() {
	s := p.s
	defer s.wg.Done()
	var conn net.Conn
	var out []byte // the run in flight: whole frames the kernel has not accepted yet
	n := 0         // frames in out
	defer func() {
		if conn != nil {
			conn.Close()
		}
		// host.Runtime.Close stops the hosts first: nothing appends now.
		p.mu.Lock()
		n += p.frames
		p.pend, p.frames = nil, 0
		p.mu.Unlock()
		s.inflight.Add(-int64(n))
		for ; n > 0; n-- {
			s.rt.Drop(nil)
		}
	}()
	for {
		if n == 0 {
			select {
			case <-s.stop:
				return
			case <-p.wake:
			}
		}
		if conn == nil {
			if conn = p.dial(); conn == nil { // network stopping
				return
			}
		}
		if n == 0 {
			runtime.Gosched()
			p.mu.Lock()
			out, p.pend = p.pend, out[:0]
			n, p.frames = p.frames, 0
			p.mu.Unlock()
		}
		s.writes.Add(1)
		sent, err := conn.Write(out)
		done := n
		if err != nil {
			var resend int
			done, resend = wholeFrames(out, sent)
			out = out[:copy(out, out[resend:])]
			conn.Close()
			conn = nil
		}
		n -= done
		s.frames.Add(int64(done))
		s.inflight.Add(-int64(done))
	}
}

// wholeFrames reports how many frames of run lie wholly within its first n
// bytes, and the offset of the first that does not: where a resend starts.
func wholeFrames(run []byte, n int) (frames, resend int) {
	for resend < n {
		end := resend + 4 + int(binary.LittleEndian.Uint32(run[resend:]))
		if end > n {
			break
		}
		frames, resend = frames+1, end
	}
	return frames, resend
}

// dial connects to the peer process, retrying with capped exponential
// backoff until it succeeds or the network stops (then nil). The handshake
// goes out before the connection is considered up.
func (p *peerLoop) dial() net.Conn {
	s := p.s
	backoff := initialBackoff
	for {
		select {
		case <-s.stop:
			return nil
		default:
		}
		conn, err := net.DialTimeout("tcp", p.addr, s.cfg.DialTimeout)
		if err == nil {
			var hs [handshakeLen]byte
			copy(hs[:], handshakeMagic[:])
			binary.LittleEndian.PutUint32(hs[4:], uint32(s.cfg.Proc))
			if _, werr := conn.Write(hs[:]); werr != nil {
				conn.Close()
				err = werr
			}
		}
		if err == nil {
			return conn
		}
		t := time.NewTimer(backoff)
		select {
		case <-s.stop:
			t.Stop()
			return nil
		case <-t.C:
		}
		if backoff *= 2; backoff > s.cfg.MaxBackoff {
			backoff = s.cfg.MaxBackoff
		}
	}
}

// acceptLoop serves inbound connections: one reader goroutine each.
func (s *sockets) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.readConn(conn)
	}
}

// readBufSize sizes an inbound connection's reader: one read syscall
// pulls in what the peer's writer coalesced, up to this many bytes.
const readBufSize = 64 << 10

// readConn validates the handshake, which the peer has DialTimeout to
// send — a connection that stays silent must not pin a goroutine and a
// conns entry until Close — then reads frames until the stream ends.
func (s *sockets) readConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBufSize)
	// A deadline that cannot be set is a dead connection: the read fails.
	_ = conn.SetReadDeadline(time.Now().Add(s.cfg.DialTimeout))
	var hs [handshakeLen]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return
	}
	if [4]byte(hs[:4]) != handshakeMagic {
		return
	}
	if proc := binary.LittleEndian.Uint32(hs[4:]); proc >= uint32(s.cfg.Procs) {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	s.readFrames(br)
}

// readFrames decodes and delivers frames until the stream ends. A frame
// that fits the reader's buffer is decoded where it lies; a larger one is
// copied out through wire.ReadFrame. A decode error poisons the stream
// (framing can no longer be trusted), so the caller closes the connection
// and the dialer reconnects; the frames already buffered behind the bad
// one go with it uncounted, their sender having retired them — the same
// loss as bytes the kernel held at a reset, and why conservation is exact
// only without connection failures during the drain.
func (s *sockets) readFrames(br *bufio.Reader) {
	var side []byte // ReadFrame's buffer, for frames larger than br's
	for {
		hdr, err := br.Peek(4)
		if err != nil {
			return
		}
		var payload []byte
		held := 0 // bytes of br the payload aliases, discarded once decoded
		if n := binary.LittleEndian.Uint32(hdr); n <= uint32(br.Size()-4) {
			held = 4 + int(n)
			if payload, err = br.Peek(held); err != nil {
				return
			}
			payload = payload[4:]
		} else if payload, side, err = wire.ReadFrame(br, side); err != nil {
			return
		}
		env, m, err := wire.Decode(payload)
		if err != nil {
			// The peer counted this frame Sent; its bytes arrived but
			// cannot be understood — account it before giving up.
			s.rt.Drop(nil)
			return
		}
		br.Discard(held)
		s.rt.Deliver(env.From, env.To, env.Pid, m)
	}
}

// Close tears the sockets down and waits for every loop; each peer loop
// counts the frames it still holds as dropped on the way out, and with the
// hosts gone nothing appends more. For an exact
// conservation check run StopTicks + Quiesce first (on every process);
// Close alone can strand bytes in kernel buffers, which only the
// cross-process sum at quiescence sees.
func (s *sockets) Close() {
	s.mu.Lock()
	s.closing = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.stop)
	if s.listener != nil {
		s.listener.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
