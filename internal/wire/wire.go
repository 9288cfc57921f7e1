// Package wire is the binary codec of the socket transport engine: it
// serialises core bootstrap messages into length-prefixed frames and
// deserialises them back into pooled messages, keeping the zero-alloc
// discipline of the in-memory engines — steady-state encode writes into a
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
// The entries of a frame are a descriptor run, and each direction handles
// the run in one pass. Encode reserves the frame's worst case once and
// writes by index, 1- and 2-byte addresses inline. Decode sizes the
// entry arena once from the validated count and reads an entry with a 1-
// or 2-byte address straight from the buffer while 10 bytes remain; any
// other entry falls back, in the same loop, to the uvarint path.
//
// The codec is deliberately specific to core.Message — the only protocol
// the socket engine carries (wire format v1). Decoding never trusts the
// peer: lengths, counts, and trailing bytes are validated against hard
// caps before any allocation sizing, so a corrupted or malicious frame
// yields an error, not a panic or an absurd allocation (fuzzed by
// FuzzWireRoundTrip, and held to the previous append-per-field codec by
// FuzzCodecMatchesReference).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
)

// Version is the wire format version emitted by AppendFrame and accepted
// by Decode.
const Version = 1

// MaxFrameSize bounds a payload. A full bootstrap message is about 1.5 KB
// (1493 bytes for 160 entries: 9 bytes per entry whose address is at most
// 127, 10 up to 16383); a megabyte is orders of magnitude of headroom
// while still refusing absurd length prefixes from a desynchronised or
// hostile stream.
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

// Codec errors; errors.Is works against these sentinels. ErrVersion,
// ErrTooLarge, ErrCounts and ErrTrailing come wrapped with what was seen
// (the version or flag byte, the size, the count or the trailing byte
// count). ErrTruncated comes back bare: a payload that ends early has no
// detail worth the formatting.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrTooLarge  = errors.New("wire: frame exceeds size bound")
	ErrCounts    = errors.New("wire: implausible element count")
	ErrTrailing  = errors.New("wire: trailing bytes after message")
)

// Worst-case encoded sizes: an address is the uvarint of a 32-bit
// pattern, a count the uvarint of an int.
const (
	maxAddrLen  = binary.MaxVarintLen32
	maxCountLen = binary.MaxVarintLen64
	maxEntryLen = 8 + maxAddrLen
	// maxFixedLen covers everything but the entries and certificates:
	// length prefix, ver/pid/flags, From, To, the sender and both counts.
	maxFixedLen = 4 + 3 + 2*maxAddrLen + maxEntryLen + 2*maxCountLen
)

// AppendFrame serialises (env, m) as one length-prefixed frame appended to
// dst and returns the extended slice. The message is only read; ownership
// stays with the caller (the transport recycles it after encoding, which
// is the moment the socket engine retires a sent message). The frame's
// worst case is reserved once, then written by index, so steady-state
// cost is stores into dst's existing capacity.
func AppendFrame(dst []byte, env Envelope, m *core.Message) []byte {
	base := len(dst)
	bound := maxFixedLen + maxEntryLen*len(m.Entries) + 8*len(m.Dead)
	dst = slices.Grow(dst, bound)
	b := dst[base : base+bound]
	b[4], b[5], b[6] = Version, byte(env.Pid), flags(m)
	o := 7
	o += binary.PutUvarint(b[o:], uint64(uint32(env.From)))
	o += binary.PutUvarint(b[o:], uint64(uint32(env.To)))
	// The lone sender takes the generic path: a putRun call for one entry
	// costs more than it saves.
	binary.LittleEndian.PutUint64(b[o:], uint64(m.Sender.ID))
	o += 8 + binary.PutUvarint(b[o+8:], uint64(uint32(m.Sender.Addr)))
	o += binary.PutUvarint(b[o:], uint64(len(m.Entries)))
	o += putRun(b[o:], m.Entries)
	o += binary.PutUvarint(b[o:], uint64(len(m.Dead)))
	for _, dead := range m.Dead {
		binary.LittleEndian.PutUint64(b[o:], uint64(dead))
		o += 8
	}
	binary.LittleEndian.PutUint32(b, uint32(o-4))
	return dst[:base+o]
}

func flags(m *core.Message) byte {
	var f byte
	if m.Request {
		f |= flagRequest
	}
	return f
}

// putRun writes ds as consecutive entries at the front of b and returns
// the bytes written — the descriptor-run primitive the entries are
// encoded through. An address is the uvarint of its two's-complement
// 32-bit pattern: real addresses are small non-negative integers, written
// inline as one or two bytes; wider ones (NoAddr among them, long-form)
// take binary.PutUvarint. b must hold maxEntryLen bytes per entry.
func putRun(b []byte, ds []peer.Descriptor) int {
	o := 0
	for _, d := range ds {
		e := b[o : o+maxEntryLen]
		binary.LittleEndian.PutUint64(e, uint64(d.ID))
		switch a := uint32(d.Addr); {
		case a < 0x80:
			e[8] = byte(a)
			o += 9
		case a < 0x4000:
			e[8] = byte(a) | 0x80
			e[9] = byte(a >> 7)
			o += 10
		default:
			o += 8 + binary.PutUvarint(e[8:], uint64(a))
		}
	}
	return o
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

// run fills dst with the next len(dst) entries — the descriptor-run
// primitive every descriptor of a frame is decoded through. While 10
// bytes remain, an entry whose address takes one or two bytes is read
// straight from the buffer under one bounds check. A wider address, or an
// entry within the payload's last 9 bytes, falls back to addr's uvarint
// and its 32-bit overflow check, which also tolerates non-minimal forms.
func (r *reader) run(dst []peer.Descriptor) error {
	buf, off := r.buf, r.off
	for i := range dst {
		if len(buf)-off >= 10 {
			e := (*[10]byte)(buf[off:])
			raw := id.ID(binary.LittleEndian.Uint64(e[:8]))
			if e[8] < 0x80 {
				dst[i] = peer.Descriptor{ID: raw, Addr: peer.Addr(e[8])}
				off += 9
				continue
			}
			if e[9] < 0x80 {
				dst[i] = peer.Descriptor{ID: raw, Addr: peer.Addr(e[8]&0x7f) | peer.Addr(e[9])<<7}
				off += 10
				continue
			}
		}
		if len(buf)-off < 8 {
			return ErrTruncated
		}
		raw := id.ID(binary.LittleEndian.Uint64(buf[off:]))
		r.off = off + 8
		a, err := r.addr()
		if err != nil {
			return err
		}
		dst[i] = peer.Descriptor{ID: raw, Addr: a}
		off = r.off
	}
	r.off = off
	return nil
}

// Decode deserialises one payload (a frame without its length prefix) into
// a pooled message. On success the caller owns the returned message and
// must eventually retire it exactly once through proto.Recyclable — under
// the transport engine that is the normal delivery/drop path. On error no
// message escapes (the pooled draw is recycled internally).
//
// The entries land in the pooled message's descriptor arena, sized once
// per frame from the validated count: after the first few frames the
// arena has grown to the working-set size and decode allocates nothing.
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
	m.Request = fl&flagRequest != 0
	var sender [1]peer.Descriptor
	if err := r.run(sender[:]); err != nil {
		return err
	}
	m.Sender = sender[0]
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each entry is at least 9 bytes on the wire, so a count that cannot
	// fit in the remaining payload is rejected before it sizes anything.
	if n > maxEntries || int(n) > r.remaining()/9+1 {
		return fmt.Errorf("%w: %d entries in %d bytes", ErrCounts, n, r.remaining())
	}
	m.Entries = slices.Grow(m.Entries[:0], int(n))[:n]
	if err := r.run(m.Entries); err != nil {
		return err
	}
	n, err = r.uvarint()
	if err != nil {
		return err
	}
	// Certificates are exactly 8 bytes, so passing this check proves they
	// all fit: the loop below reads them with no truncation check.
	if n > maxEntries || int(n) > r.remaining()/8 {
		return fmt.Errorf("%w: %d certificates in %d bytes", ErrCounts, n, r.remaining())
	}
	m.Dead = slices.Grow(m.Dead[:0], int(n))[:n]
	certs := r.buf[r.off : r.off+8*int(n)]
	for i := range m.Dead {
		m.Dead[i] = id.ID(binary.LittleEndian.Uint64(certs[8*i:]))
	}
	r.off += len(certs)
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
