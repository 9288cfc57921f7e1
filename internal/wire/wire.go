// Package wire is the binary codec of the socket transport engine: it
// serialises core bootstrap messages into length-prefixed frames and
// deserialises them back into pooled messages, keeping the zero-alloc
// discipline of the in-memory engines — steady-state encode appends into a
// caller-reused buffer and steady-state decode fills a pooled message's
// descriptor arena, so neither direction allocates per frame.
//
// Frame layout (version 1, all multi-byte integers little-endian):
//
//	frame   := length(uint32) payload
//	payload := ver(1) pid(1) flags(1) from(uvarint) to(uvarint)
//	           sender nEntries(uvarint) entry* nDead(uvarint) deadID*
//	entry   := id(8) addr(uvarint)
//	deadID  := id(8)
//
// Descriptor IDs ship as raw 8-byte words: they are uniform random points
// on the ring, so there is nothing for a varint to compress. Addresses are
// dense small integers assigned by the campaign topology and varint-encode
// to one or two bytes. The length prefix covers the payload only.
//
// The codec is deliberately specific to core.Message — the only protocol
// the socket engine carries (wire format v1). Decoding never trusts the
// peer: lengths, counts, and trailing bytes are validated against hard
// caps before any allocation sizing, so a corrupted or malicious frame
// yields an error, not a panic or an absurd allocation (fuzzed by
// FuzzWireRoundTrip).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
)

// Version is the wire format version emitted by AppendFrame and accepted
// by Decode.
const Version = 1

// MaxFrameSize bounds a payload. A full bootstrap message is a few hundred
// bytes (c + table entries at ~10 bytes each); a megabyte is orders of
// magnitude of headroom while still refusing absurd length prefixes from a
// desynchronised or hostile stream.
const MaxFrameSize = 1 << 20

// maxEntries bounds the per-message descriptor and certificate counts.
// The protocol caps entries at c + the full prefix-table capacity (well
// under a thousand) and certificates at 32; the decoder allows a wide
// margin without letting a forged count size an allocation.
const maxEntries = 1 << 16

// flag bits of the payload flags byte.
const flagRequest = 1 << 0

// Envelope is the routing header of a frame: which host sent the message,
// which host it is for, and the protocol binding it addresses.
type Envelope struct {
	From, To peer.Addr
	Pid      proto.ProtoID
}

// Codec errors. Decode wraps them with positional detail; errors.Is works
// against these sentinels.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrTooLarge  = errors.New("wire: frame exceeds size bound")
	ErrCounts    = errors.New("wire: implausible element count")
	ErrTrailing  = errors.New("wire: trailing bytes after message")
)

// appendUvarint is binary.AppendUvarint (kept local so the encoder reads
// as one piece with the decoder's getUvarint).
func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// appendAddr encodes an address as the uvarint of its two's-complement
// 32-bit pattern: real addresses are small non-negative integers (1-2
// bytes); the NoAddr sentinel still round-trips, just long-form.
func appendAddr(dst []byte, a peer.Addr) []byte {
	return appendUvarint(dst, uint64(uint32(a)))
}

// AppendFrame serialises (env, m) as one length-prefixed frame appended to
// dst and returns the extended slice. The message is only read; ownership
// stays with the caller (the transport recycles it after encoding, which
// is the moment the socket engine retires a sent message). Steady-state
// cost is pure byte appends into dst's existing capacity.
func AppendFrame(dst []byte, env Envelope, m *core.Message) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length back-patched below
	dst = append(dst, Version, byte(env.Pid), flags(m))
	dst = appendAddr(dst, env.From)
	dst = appendAddr(dst, env.To)
	dst = appendDescriptor(dst, m.Sender)
	dst = appendUvarint(dst, uint64(len(m.Entries)))
	for _, d := range m.Entries {
		dst = appendDescriptor(dst, d)
	}
	dst = appendUvarint(dst, uint64(len(m.Dead)))
	for _, dead := range m.Dead {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(dead))
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(dst)-base-4))
	return dst
}

func flags(m *core.Message) byte {
	var f byte
	if m.Request {
		f |= flagRequest
	}
	return f
}

func appendDescriptor(dst []byte, d peer.Descriptor) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.ID))
	return appendAddr(dst, d.Addr)
}

// reader is a cursor over one payload.
type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, ErrTruncated
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) uint64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

func (r *reader) addr() (peer.Addr, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(^uint32(0)) {
		return 0, fmt.Errorf("%w: address %d overflows 32 bits", ErrCounts, v)
	}
	return peer.Addr(int32(uint32(v))), nil
}

func (r *reader) descriptor() (peer.Descriptor, error) {
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

// Decode deserialises one payload (a frame without its length prefix) into
// a pooled message. On success the caller owns the returned message and
// must eventually retire it exactly once through proto.Recyclable — under
// the transport engine that is the normal delivery/drop path. On error no
// message escapes (the pooled draw is recycled internally).
//
// The entries land in the pooled message's descriptor arena: after the
// first few frames the arena has grown to the working-set size and decode
// allocates nothing.
func Decode(payload []byte) (Envelope, *core.Message, error) {
	var env Envelope
	if len(payload) > MaxFrameSize {
		return env, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	r := reader{buf: payload}
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
	if err := decodeBody(&r, m, fl); err != nil {
		m.Recycle()
		return env, nil, err
	}
	return env, m, nil
}

func decodeBody(r *reader, m *core.Message, fl byte) error {
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

// ReadFrame reads one length-prefixed frame from r into buf (grown as
// needed) and returns the payload slice aliasing buf — valid until the
// next call with the same buffer. io.EOF is returned untouched at a clean
// frame boundary so stream loops can distinguish orderly shutdown from a
// mid-frame cut (io.ErrUnexpectedEOF). The transport's read loop decodes a
// frame that fits its bufio buffer where it lies and comes here only for a
// larger one.
func ReadFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, buf, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, err
	}
	return buf, buf, nil
}
