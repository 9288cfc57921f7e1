package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/testenv"
)

// addrBoundaries are the addresses at each edge of a uvarint width: the
// widest 1- and 2-byte values the decoder reads inline, the narrowest
// values that fall back, the 4- and 5-byte edges, and the sentinel.
var addrBoundaries = []peer.Addr{0, 0x7f, 0x80, 0x3fff, 0x4000, 0x1fffff, 0x200000, math.MaxInt32, peer.NoAddr}

// randomMessage fills a pooled message with rng-driven contents.
func randomMessage(rng *rand.Rand) *core.Message {
	m := core.NewMessage()
	m.Request = rng.Intn(2) == 0
	m.Sender = peer.Descriptor{ID: id.ID(rng.Uint64()), Addr: peer.Addr(rng.Int31n(1 << 20))}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		m.Entries = append(m.Entries, peer.Descriptor{
			ID:   id.ID(rng.Uint64()),
			Addr: peer.Addr(rng.Int31n(1 << 20)),
		})
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		m.Dead = append(m.Dead, id.ID(rng.Uint64()))
	}
	return m
}

func sameMessage(t *testing.T, want, got *core.Message) {
	t.Helper()
	if want.Request != got.Request {
		t.Errorf("Request: want %v, got %v", want.Request, got.Request)
	}
	if want.Sender != got.Sender {
		t.Errorf("Sender: want %v, got %v", want.Sender, got.Sender)
	}
	if len(want.Entries) != len(got.Entries) {
		t.Fatalf("Entries: want %d, got %d", len(want.Entries), len(got.Entries))
	}
	for i := range want.Entries {
		if want.Entries[i] != got.Entries[i] {
			t.Errorf("Entries[%d]: want %v, got %v", i, want.Entries[i], got.Entries[i])
		}
	}
	if len(want.Dead) != len(got.Dead) {
		t.Fatalf("Dead: want %d, got %d", len(want.Dead), len(got.Dead))
	}
	for i := range want.Dead {
		if want.Dead[i] != got.Dead[i] {
			t.Errorf("Dead[%d]: want %v, got %v", i, want.Dead[i], got.Dead[i])
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		m := randomMessage(rng)
		env := Envelope{
			From: peer.Addr(rng.Int31n(1 << 16)),
			To:   peer.Addr(rng.Int31n(1 << 16)),
			Pid:  proto.ProtoID(rng.Intn(256)),
		}
		frame := AppendFrame(nil, env, m)
		gotEnv, got, err := Decode(frame[4:])
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if gotEnv != env {
			t.Fatalf("trial %d: envelope: want %+v, got %+v", trial, env, gotEnv)
		}
		sameMessage(t, m, got)
		m.Recycle()
		got.Recycle()
	}
}

// TestWireRoundTripEdgeCases pins the corners the random sweep may miss:
// empty message, NoAddr sentinels everywhere, certificates only, and each
// address-width boundary in the sender, the entries, From and To.
func TestWireRoundTripEdgeCases(t *testing.T) {
	cases := []func(m *core.Message) Envelope{
		func(m *core.Message) Envelope { // empty everything
			return Envelope{From: 0, To: 0, Pid: 0}
		},
		func(m *core.Message) Envelope { // NoAddr sentinels round-trip
			m.Sender = peer.None
			m.Entries = append(m.Entries, peer.None)
			return Envelope{From: peer.NoAddr, To: peer.NoAddr, Pid: proto.BootstrapID}
		},
		func(m *core.Message) Envelope { // request flag + certificates only
			m.Request = true
			m.Dead = append(m.Dead, 1, 2, 3)
			return Envelope{From: 7, To: 9, Pid: proto.NewscastID}
		},
	}
	for _, a := range addrBoundaries { // every address width, everywhere
		cases = append(cases, func(m *core.Message) Envelope {
			m.Sender = peer.Descriptor{ID: id.ID(a) << 3, Addr: a}
			for j, b := range addrBoundaries {
				m.Entries = append(m.Entries, peer.Descriptor{ID: id.ID(j), Addr: b})
			}
			m.Entries = append(m.Entries, peer.Descriptor{ID: ^id.ID(0), Addr: a})
			return Envelope{From: a, To: a, Pid: proto.BootstrapID}
		})
	}
	for i, build := range cases {
		m := core.NewMessage()
		env := build(m)
		frame := AppendFrame(nil, env, m)
		gotEnv, got, err := Decode(frame[4:])
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if gotEnv != env {
			t.Fatalf("case %d: envelope: want %+v, got %+v", i, env, gotEnv)
		}
		sameMessage(t, m, got)
		m.Recycle()
		got.Recycle()
	}
}

// TestWireDecodeMalformed feeds the decoder structurally broken payloads
// and requires a typed error (never a panic, never a silent success).
func TestWireDecodeMalformed(t *testing.T) {
	m := core.NewMessage()
	m.Sender = peer.Descriptor{ID: 99, Addr: 3}
	m.Entries = append(m.Entries, peer.Descriptor{ID: 1, Addr: 1}, peer.Descriptor{ID: 2, Addr: 2})
	m.Dead = append(m.Dead, 5)
	frame := AppendFrame(nil, Envelope{From: 1, To: 2, Pid: proto.BootstrapID}, m)
	payload := frame[4:]
	m.Recycle()

	t.Run("empty", func(t *testing.T) {
		if _, _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := bytes.Clone(payload)
		bad[0] = 0x7f
		if _, _, err := Decode(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("want ErrVersion, got %v", err)
		}
	})
	t.Run("truncated every prefix", func(t *testing.T) {
		for cut := 0; cut < len(payload); cut++ {
			if _, msg, err := Decode(payload[:cut]); err == nil {
				msg.Recycle()
				t.Fatalf("cut %d: decode of truncated payload succeeded", cut)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(bytes.Clone(payload), 0xee)
		if _, _, err := Decode(bad); !errors.Is(err, ErrTrailing) {
			t.Fatalf("want ErrTrailing, got %v", err)
		}
	})
	t.Run("forged entry count", func(t *testing.T) {
		// Overwrite the entry count (first uvarint after the 3-byte
		// header, two 1-byte addrs, and the 9-byte sender) with a count
		// the remaining bytes cannot hold.
		bad := bytes.Clone(payload)
		bad[3+1+1+9] = 0xff // uvarint continuation -> large count
		bad = append(bad, 0xff, 0x7f)
		if _, _, err := Decode(bad); err == nil {
			t.Fatal("decode with forged count succeeded")
		}
	})
	// The next two cut into the entry run where the decoder's inline
	// window (10 bytes) no longer applies or no longer suffices, so they
	// exercise its fall-back to the uvarint path.
	t.Run("2-byte address cut after its first byte", func(t *testing.T) {
		m := core.NewMessage()
		m.Entries = append(m.Entries, peer.Descriptor{ID: 1, Addr: 5}, peer.Descriptor{ID: 2, Addr: 0x80})
		p := AppendFrame(nil, Envelope{From: 1, To: 2}, m)[4:]
		m.Recycle()
		// p ends id(8) 0x80 0x01 and a 1-byte certificate count: drop the
		// address's second byte and the count, leaving 9 bytes for the
		// last entry.
		if _, _, err := Decode(p[:len(p)-2]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("entry address overflows 32 bits", func(t *testing.T) {
		m := core.NewMessage()
		m.Entries = append(m.Entries, peer.Descriptor{ID: 1, Addr: 0})
		p := AppendFrame(nil, Envelope{From: 1, To: 2}, m)[4:]
		m.Recycle()
		// Replace the entry's 1-byte address (second to last byte) with
		// the 6-byte varint of 1<<35.
		bad := append(bytes.Clone(p[:len(p)-2]), 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, p[len(p)-1])
		if _, _, err := Decode(bad); !errors.Is(err, ErrCounts) {
			t.Fatalf("want ErrCounts, got %v", err)
		}
	})
	t.Run("oversized payload", func(t *testing.T) {
		if _, _, err := Decode(make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("want ErrTooLarge, got %v", err)
		}
	})
}

func TestReadFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream []byte
	var msgs []*core.Message
	for i := 0; i < 5; i++ {
		m := randomMessage(rng)
		stream = AppendFrame(stream, Envelope{From: peer.Addr(i), To: peer.Addr(i + 1), Pid: 1}, m)
		msgs = append(msgs, m)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i := 0; i < 5; i++ {
		payload, newBuf, err := ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = newBuf
		env, got, err := Decode(payload)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if env.From != peer.Addr(i) || env.To != peer.Addr(i+1) {
			t.Fatalf("frame %d: envelope %+v", i, env)
		}
		sameMessage(t, msgs[i], got)
		got.Recycle()
	}
	if _, _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("want io.EOF at clean boundary, got %v", err)
	}

	// A mid-frame cut must not look like orderly shutdown.
	r = bytes.NewReader(stream[:len(stream)-3])
	buf = buf[:0]
	var err error
	for err == nil {
		_, buf, err = ReadFrame(r, buf)
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF at mid-frame cut, got %v", err)
	}
	for _, m := range msgs {
		m.Recycle()
	}
}

// TestWireCodecAllocs is the CI alloc guard for the tentpole requirement:
// steady-state encode AND decode at 0 allocs/op. The warm-up round grows
// the encode buffer and the pooled message's descriptor arena; after that
// the loop must not touch the heap.
func TestWireCodecAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	m := randomMessage(rng)
	env := Envelope{From: 3, To: 8, Pid: proto.BootstrapID}
	buf := AppendFrame(nil, env, m)

	// Warm the pool with a decoded message of this shape.
	_, warm, err := Decode(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	warm.Recycle()

	avg := testing.AllocsPerRun(100, func() {
		buf = AppendFrame(buf[:0], env, m)
		_, got, err := Decode(buf[4:])
		if err != nil {
			t.Fatal(err)
		}
		got.Recycle()
	})
	if avg != 0 {
		t.Fatalf("encode+decode allocations: got %v allocs/op, want 0", avg)
	}
	m.Recycle()
}

// BenchmarkWireCodec measures one encode+decode round trip of a typical
// bootstrap exchange (~20 descriptors). CI asserts 0 allocs/op.
func BenchmarkWireCodec(b *testing.B) {
	m := core.NewMessage()
	m.Request = true
	m.Sender = peer.Descriptor{ID: 0xdeadbeef, Addr: 17}
	for i := 0; i < 20; i++ {
		m.Entries = append(m.Entries, peer.Descriptor{ID: id.ID(i * 0x9e3779b9), Addr: peer.Addr(i)})
	}
	m.Dead = append(m.Dead, 0x1111, 0x2222)
	benchmarkCodec(b, m)
}

// BenchmarkWireCodecFull is the same round trip at the full bootstrap
// message (160 entries, the relay-sock-full shape). Addresses are drawn
// from [0, 4096), so both inline address widths run. CI asserts 0
// allocs/op.
func BenchmarkWireCodecFull(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := core.NewMessage()
	m.Request = true
	m.Sender = peer.Descriptor{ID: id.ID(rng.Uint64()), Addr: 17}
	for i := 0; i < 160; i++ {
		m.Entries = append(m.Entries, peer.Descriptor{ID: id.ID(rng.Uint64()), Addr: peer.Addr(rng.Intn(4096))})
	}
	m.Dead = append(m.Dead, 0x1111, 0x2222)
	benchmarkCodec(b, m)
}

func benchmarkCodec(b *testing.B, m *core.Message) {
	env := Envelope{From: 17, To: 4, Pid: proto.BootstrapID}
	buf := AppendFrame(nil, env, m)
	_, warm, err := Decode(buf[4:])
	if err != nil {
		b.Fatal(err)
	}
	warm.Recycle()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], env, m)
		_, got, err := Decode(buf[4:])
		if err != nil {
			b.Fatal(err)
		}
		got.Recycle()
	}
	b.SetBytes(int64(len(buf)))
}
