package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
)

// The codec as it stood before the descriptor-run primitive: an append
// per field and four (value, error) calls per decoded entry. It is kept,
// renamed and otherwise verbatim, as the oracle FuzzCodecMatchesReference
// holds the one-pass codec to — same accept/reject set, same sentinels,
// same decoded values, same bytes.

// referenceAppendUvarint is binary.AppendUvarint (kept local so the encoder reads
// as one piece with the decoder's getUvarint).
func referenceAppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// referenceAppendAddr encodes an address as the uvarint of its two's-complement
// 32-bit pattern: real addresses are small non-negative integers (1-2
// bytes); the NoAddr sentinel still round-trips, just long-form.
func referenceAppendAddr(dst []byte, a peer.Addr) []byte {
	return referenceAppendUvarint(dst, uint64(uint32(a)))
}

// referenceAppendFrame serialises (env, m) as one length-prefixed frame appended to
// dst and returns the extended slice. The message is only read; ownership
// stays with the caller (the transport recycles it after encoding, which
// is the moment the socket engine retires a sent message). Steady-state
// cost is pure byte appends into dst's existing capacity.
func referenceAppendFrame(dst []byte, env Envelope, m *core.Message) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length back-patched below
	dst = append(dst, Version, byte(env.Pid), referenceFlags(m))
	dst = referenceAppendAddr(dst, env.From)
	dst = referenceAppendAddr(dst, env.To)
	dst = referenceAppendDescriptor(dst, m.Sender)
	dst = referenceAppendUvarint(dst, uint64(len(m.Entries)))
	for _, d := range m.Entries {
		dst = referenceAppendDescriptor(dst, d)
	}
	dst = referenceAppendUvarint(dst, uint64(len(m.Dead)))
	for _, dead := range m.Dead {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(dead))
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(dst)-base-4))
	return dst
}

func referenceFlags(m *core.Message) byte {
	var f byte
	if m.Request {
		f |= flagRequest
	}
	return f
}

func referenceAppendDescriptor(dst []byte, d peer.Descriptor) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.ID))
	return referenceAppendAddr(dst, d.Addr)
}

// referenceReader is a cursor over one payload.
type referenceReader struct {
	buf []byte
	off int
}

func (r *referenceReader) remaining() int { return len(r.buf) - r.off }

func (r *referenceReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, ErrTruncated
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *referenceReader) uint64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *referenceReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

func (r *referenceReader) addr() (peer.Addr, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(^uint32(0)) {
		return 0, fmt.Errorf("%w: address %d overflows 32 bits", ErrCounts, v)
	}
	return peer.Addr(int32(uint32(v))), nil
}

func (r *referenceReader) descriptor() (peer.Descriptor, error) {
	raw, err := r.uint64()
	if err != nil {
		return peer.Descriptor{}, err
	}
	a, err := r.addr()
	if err != nil {
		return peer.Descriptor{}, err
	}
	return peer.Descriptor{ID: id.ID(raw), Addr: a}, nil
}

// referenceDecode deserialises one payload (a frame without its length prefix) into
// a pooled message. On success the caller owns the returned message and
// must eventually retire it exactly once through proto.Recyclable — under
// the transport engine that is the normal delivery/drop path. On error no
// message escapes (the pooled draw is recycled internally).
//
// The entries land in the pooled message's descriptor arena: after the
// first few frames the arena has grown to the working-set size and decode
// allocates nothing.
func referenceDecode(payload []byte) (Envelope, *core.Message, error) {
	var env Envelope
	if len(payload) > MaxFrameSize {
		return env, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	r := referenceReader{buf: payload}
	ver, err := r.byte()
	if err != nil {
		return env, nil, err
	}
	if ver != Version {
		return env, nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, ver, Version)
	}
	pid, err := r.byte()
	if err != nil {
		return env, nil, err
	}
	env.Pid = proto.ProtoID(pid)
	fl, err := r.byte()
	if err != nil {
		return env, nil, err
	}
	if fl&^flagRequest != 0 {
		return env, nil, fmt.Errorf("%w: unknown flag bits %#x", ErrVersion, fl)
	}
	if env.From, err = r.addr(); err != nil {
		return env, nil, err
	}
	if env.To, err = r.addr(); err != nil {
		return env, nil, err
	}

	m := core.NewMessage()
	if err := referenceDecodeBody(&r, m, fl); err != nil {
		m.Recycle()
		return env, nil, err
	}
	return env, m, nil
}

func referenceDecodeBody(r *referenceReader, m *core.Message, fl byte) error {
	var err error
	m.Request = fl&flagRequest != 0
	if m.Sender, err = r.descriptor(); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each entry is at least 9 bytes on the wire, so a count that cannot
	// fit in the remaining payload is rejected before it sizes anything.
	if n > maxEntries || int(n) > r.remaining()/9+1 {
		return fmt.Errorf("%w: %d entries in %d bytes", ErrCounts, n, r.remaining())
	}
	m.Entries = m.Entries[:0]
	for i := uint64(0); i < n; i++ {
		d, err := r.descriptor()
		if err != nil {
			return err
		}
		m.Entries = append(m.Entries, d)
	}
	n, err = r.uvarint()
	if err != nil {
		return err
	}
	if n > maxEntries || int(n) > r.remaining()/8 {
		return fmt.Errorf("%w: %d certificates in %d bytes", ErrCounts, n, r.remaining())
	}
	m.Dead = m.Dead[:0]
	for i := uint64(0); i < n; i++ {
		raw, err := r.uint64()
		if err != nil {
			return err
		}
		m.Dead = append(m.Dead, id.ID(raw))
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, r.remaining())
	}
	return nil
}

// fuzzSentinels are the codec's error sentinels; on a rejected payload
// the two codecs must agree on every one of them.
var fuzzSentinels = []error{ErrTruncated, ErrVersion, ErrTooLarge, ErrCounts, ErrTrailing}

// seedMessage builds a message whose sender and entries cycle through
// addrBoundaries, starting at offset k, with n entries.
func seedMessage(k, n int) *core.Message {
	m := core.NewMessage()
	m.Request = k%2 == 0
	m.Sender = peer.Descriptor{ID: id.ID(0x9e3779b97f4a7c15 * uint64(k+1)), Addr: addrBoundaries[k%len(addrBoundaries)]}
	for i := 0; i < n; i++ {
		m.Entries = append(m.Entries, peer.Descriptor{
			ID:   id.ID(0xbf58476d1ce4e5b9 * uint64(i+k+1)),
			Addr: addrBoundaries[(i+k)%len(addrBoundaries)],
		})
	}
	for i := 0; i < k%3; i++ {
		m.Dead = append(m.Dead, id.ID(uint64(i+1)<<40|uint64(k)))
	}
	return m
}

// FuzzCodecMatchesReference holds the one-pass codec to the reference
// above on arbitrary payloads: both accept or both reject; a rejection
// carries the same sentinel and text; an acceptance decodes the same
// envelope and message, and re-encoding it yields identical bytes. The
// seeds put every address-width boundary into the sender, the entries,
// From and To, span 0, 1, 160 and 788 entries, and cut each frame 1–5
// bytes short, so the fast path's fall-back is exercised from the start.
func FuzzCodecMatchesReference(f *testing.F) {
	var frames [][]byte
	for k, a := range addrBoundaries {
		m := seedMessage(k, len(addrBoundaries))
		frames = append(frames, AppendFrame(nil, Envelope{From: a, To: a, Pid: proto.BootstrapID}, m)[4:])
		m.Recycle()
	}
	for k, n := range []int{0, 1, 160, 788} {
		m := seedMessage(k, n)
		frames = append(frames, AppendFrame(nil, Envelope{From: 0x80, To: 0x3fff, Pid: proto.NewscastID}, m)[4:])
		m.Recycle()
	}
	for _, payload := range frames {
		f.Add(payload)
		for cut := 1; cut <= 5 && cut <= len(payload); cut++ {
			f.Add(payload[:len(payload)-cut])
		}
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		env, m, err := Decode(payload)
		renv, rm, rerr := referenceDecode(payload)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("accept mismatch: got %v, reference %v\npayload: %x", err, rerr, payload)
		}
		if err != nil {
			if m != nil || rm != nil {
				t.Fatal("decode returned both a message and an error")
			}
			for _, s := range fuzzSentinels {
				if errors.Is(err, s) != errors.Is(rerr, s) {
					t.Fatalf("sentinel mismatch on %v: got %v, reference %v\npayload: %x", s, err, rerr, payload)
				}
			}
			if err.Error() != rerr.Error() {
				t.Fatalf("error text: got %q, reference %q", err, rerr)
			}
			return
		}
		if env != renv {
			t.Fatalf("envelope: got %+v, reference %+v", env, renv)
		}
		sameMessage(t, rm, m)
		// A non-empty dst checks that the frame lands after what is there.
		prefix := []byte{0xaa, 0xbb}
		got := AppendFrame(bytes.Clone(prefix), env, m)
		want := referenceAppendFrame(bytes.Clone(prefix), env, m)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding differs:\n got: %x\nwant: %x", got, want)
		}
		m.Recycle()
		rm.Recycle()
	})
}
