// Package binfmt is the one byte-layout toolkit under every binary codec in
// the repository (DESIGN.md §20): a bounds-checked Reader every decoder
// reads through, and the versioned, checksummed frame that the SF↔CS
// transport and the client↔frontend subscription session both speak:
//
//	magic(4) | version(1) | type(1) | payload_len(4) | payload | crc32c(4)
//
// little-endian, the checksum over header and payload. Each frame user
// owns a disjoint range of type bytes. The at-rest formats (index, segment,
// state directory, vocabulary) are big-endian and unframed; they read
// through the same Reader with its named big-endian reads.
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
)

// Typed frame errors; match with errors.Is. The first four mean the bytes
// cannot be trusted to delimit a frame; ErrBadPayload means an intact
// frame whose body does not parse.
var (
	// ErrBadMagic reports bytes that are not a frame.
	ErrBadMagic = errors.New("binfmt: bad frame magic")
	// ErrVersion reports a frame of another codec version.
	ErrVersion = errors.New("binfmt: unsupported frame version")
	// ErrTruncated reports bytes that end inside a frame.
	ErrTruncated = errors.New("binfmt: truncated frame")
	// ErrChecksum reports a frame whose checksum does not match its bytes.
	ErrChecksum = errors.New("binfmt: frame checksum mismatch")
	// ErrBadPayload reports an intact frame with an invalid body, or a
	// message a codec cannot represent.
	ErrBadPayload = errors.New("binfmt: invalid frame payload")
)

const (
	// Magic opens every frame; it reads "PISW" on the wire.
	Magic = 0x57534950
	// Version is the frame codec version, the one a reader accepts.
	Version = 1
	// HeaderSize and TrailerSize frame a payload.
	HeaderSize  = 4 + 1 + 1 + 4
	TrailerSize = 4
)

var (
	le       = binary.LittleEndian
	be       = binary.BigEndian
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// AppendHeader appends the header of a frame of type typ whose payload is n
// bytes long.
func AppendHeader(dst []byte, typ byte, n int) []byte {
	dst = le.AppendUint32(dst, Magic)
	dst = append(dst, Version, typ)
	return le.AppendUint32(dst, uint32(n))
}

// ParseHeader checks the HeaderSize bytes at the front of hdr and returns
// the frame's type and declared payload length. A bad magic or version is
// a typed error; bounding the length is the caller's policy.
func ParseHeader(hdr []byte) (typ byte, n int, err error) {
	if le.Uint32(hdr) != Magic {
		return 0, 0, ErrBadMagic
	}
	if hdr[4] != Version {
		return 0, 0, fmt.Errorf("%w: peer speaks %d, this side %d", ErrVersion, hdr[4], Version)
	}
	return hdr[5], int(le.Uint32(hdr[6:])), nil
}

// Sum extends a frame checksum (CRC-32C) over b; a frame's starts at 0.
func Sum(crc uint32, b []byte) uint32 { return crc32.Update(crc, crcTable, b) }

// AppendSum appends the checksum trailer of the frame that starts at
// dst[start].
func AppendSum(dst []byte, start int) []byte {
	return le.AppendUint32(dst, Sum(0, dst[start:]))
}

// Split takes the first frame off data, returning its type, its payload (a
// capacity-capped sub-slice of data) and its length on the wire, so a byte
// stream held in memory decodes by repeated calls. data ending inside the
// frame is ErrTruncated; a declared length is never allocated from.
func Split(data []byte) (typ byte, payload []byte, n int, err error) {
	if len(data) < HeaderSize {
		return 0, nil, 0, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(data), HeaderSize)
	}
	typ, size, err := ParseHeader(data)
	if err != nil {
		return 0, nil, 0, err
	}
	end := HeaderSize + size
	if len(data)-TrailerSize < end {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes of %d", ErrTruncated, len(data), end+TrailerSize)
	}
	if Sum(0, data[:end]) != le.Uint32(data[end:]) {
		return 0, nil, 0, ErrChecksum
	}
	return typ, data[HeaderSize:end:end], end + TrailerSize, nil
}

// Reader reads a byte string front to back. A read past the end, or a
// count that what is left cannot hold, makes the reader bad: it then
// yields zeros and nil for every read, so a decoder checks Bad once at the
// end instead of after every field. The little-endian reads are the frame
// codecs'; the big-endian ones (…BE) the at-rest formats'.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Bad reports whether a read ran past the end or a count was refused.
func (r *Reader) Bad() bool { return r.bad }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Fail makes the reader bad, for a decoder that finds a field invalid.
func (r *Reader) Fail() { r.bad, r.b = true, nil }

// Take returns the next n bytes as a sub-slice whose capacity ends where
// it does, so an append by whoever holds it cannot reach its neighbour.
func (r *Reader) Take(n int) []byte {
	if uint(n) > uint(len(r.b)) {
		r.Fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Rest takes everything left.
func (r *Reader) Rest() []byte { return r.Take(len(r.b)) }

func (r *Reader) U8() byte {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (r *Reader) U32BE() uint32 {
	if b := r.Take(4); b != nil {
		return be.Uint32(b)
	}
	return 0
}

func (r *Reader) U64BE() uint64 {
	if b := r.Take(8); b != nil {
		return be.Uint64(b)
	}
	return 0
}

// Count reads a little-endian u32 element count and vets it with Within.
func (r *Reader) Count(unit int) int { return r.Within(uint64(r.U32()), unit) }

// Within returns n when n elements of at least unit (≥ 1) bytes each can
// still follow; otherwise it makes the reader bad and returns 0. The
// product cannot overflow, so a lying count never sizes an allocation.
func (r *Reader) Within(n uint64, unit int) int {
	hi, lo := bits.Mul64(n, uint64(unit))
	if hi != 0 || lo > uint64(len(r.b)) {
		r.Fail()
		return 0
	}
	return int(n)
}
