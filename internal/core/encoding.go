package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"pisd/internal/binfmt"
)

// Serialization of the cloud-resident index types, used when the front end
// outsources a freshly built index to a remote cloud server. Both formats
// are fixed-layout binary: a header with the public parameters followed by
// the raw bucket bytes. The content is ciphertext and padding only, so the
// encoding leaks nothing beyond the index's public shape.

const indexMagic = 0x50495344 // "PISD"

// IndexHeaderSize is the byte length of the fixed header MarshalBinary
// places before the raw bucket bytes. Bucket (table, pos) of an index with
// per-table width w lives at IndexHeaderSize + (table·w + pos)·BucketSize,
// and stash slot s at IndexHeaderSize + (Tables·w + s)·BucketSize — the
// invariant the segment store's on-demand bucket reads rely on.
const IndexHeaderSize = 4 + 8*7

// IndexShape is the public geometry of an encoded static index, decoded
// from its header alone: enough to address any bucket without loading the
// body.
type IndexShape struct {
	Params Params
	Width  int
	N      int
}

// BucketOffset returns the offset of bucket (table, pos) within a
// MarshalBinary encoding of this shape.
func (sh IndexShape) BucketOffset(table int, pos uint64) int64 {
	return IndexHeaderSize + (int64(table)*int64(sh.Width)+int64(pos))*BucketSize
}

// StashOffset returns the offset of stash slot pos within a MarshalBinary
// encoding of this shape.
func (sh IndexShape) StashOffset(pos int) int64 {
	return IndexHeaderSize + (int64(sh.Params.Tables)*int64(sh.Width)+int64(pos))*BucketSize
}

// EncodedSize returns the total MarshalBinary length of this shape.
func (sh IndexShape) EncodedSize() int64 {
	return IndexHeaderSize + (int64(sh.Params.Tables)*int64(sh.Width)+int64(sh.Params.StashSize))*BucketSize
}

// ParseIndexHeader decodes and validates the MarshalBinary header,
// returning the index shape. data may be just the header or the whole
// encoding.
func ParseIndexHeader(data []byte) (IndexShape, error) {
	r := binfmt.NewReader(data)
	p, width, n, stash, err := readHeader(&r, indexMagic, "index")
	if err != nil {
		return IndexShape{}, err
	}
	p.StashSize = stash
	if _, err := bodySize(p, width, stash, BucketSize); err != nil {
		return IndexShape{}, err
	}
	return IndexShape{Params: p, Width: width, N: n}, nil
}

// appendHeader appends the header both index encodings open with: the
// magic, then seven big-endian u64 — tables, capacity, probe range, max
// loop, width, and two fields of the encoding's own (static: item count
// and stash size; dynamic: payload and EncR sizes).
func appendHeader(dst []byte, magic uint32, p Params, width, f6, f7 int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, magic)
	for _, v := range [...]int{p.Tables, p.Capacity, p.ProbeRange, p.MaxLoop, width, f6, f7} {
		dst = binary.BigEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// readHeader is the one parse of that header; bodySize validates what it
// read.
func readHeader(r *binfmt.Reader, magic uint32, what string) (p Params, width, f6, f7 int, err error) {
	if r.Len() < IndexHeaderSize {
		return p, 0, 0, 0, fmt.Errorf("core: %s encoding too short (%d bytes)", what, r.Len())
	}
	if r.U32BE() != magic {
		return p, 0, 0, 0, fmt.Errorf("core: bad %s magic", what)
	}
	p = Params{Tables: int(r.U64BE()), Capacity: int(r.U64BE()), ProbeRange: int(r.U64BE()), MaxLoop: int(r.U64BE())}
	return p, int(r.U64BE()), int(r.U64BE()), int(r.U64BE()), nil
}

// bodySize validates a decoded shape and returns its body length,
// (Tables·width + extra)·unit. The product is checked for overflow: one
// that wrapped would let a hostile header match a short body and size the
// allocations that follow.
func bodySize(p Params, width, extra, unit int) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, fmt.Errorf("core: decode index: %w", err)
	}
	if width < 1 || width > p.Capacity {
		return 0, fmt.Errorf("core: decode index: width %d out of range", width)
	}
	hi, cells := bits.Mul64(uint64(p.Tables), uint64(width))
	cells, carry := bits.Add64(cells, uint64(extra), 0)
	hi2, size := bits.Mul64(cells, uint64(unit))
	if hi|carry|hi2 != 0 || size > math.MaxInt64-IndexHeaderSize {
		return 0, fmt.Errorf("core: decode index: shape %d×%d+%d of %d-byte buckets overflows", p.Tables, width, extra, unit)
	}
	return int(size), nil
}

// Shape returns the index's encoded geometry.
func (x *Index) Shape() IndexShape {
	return IndexShape{Params: x.params, Width: x.width, N: x.n}
}

// MarshalBinary encodes the static index.
func (x *Index) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, IndexHeaderSize+(x.params.Tables*x.width+len(x.stash))*BucketSize)
	out = appendHeader(out, indexMagic, x.params, x.width, x.n, len(x.stash))
	for _, tbl := range x.tables {
		for _, b := range tbl {
			out = append(out, b...)
		}
	}
	for _, b := range x.stash {
		out = append(out, b...)
	}
	return out, nil
}

// UnmarshalBinary decodes an index produced by MarshalBinary.
func (x *Index) UnmarshalBinary(data []byte) error {
	sh, err := ParseIndexHeader(data)
	if err != nil {
		return err
	}
	r := binfmt.NewReader(data[IndexHeaderSize:])
	if want := sh.EncodedSize() - IndexHeaderSize; int64(r.Len()) != want {
		return fmt.Errorf("core: decode index: body %d bytes, want %d", r.Len(), want)
	}
	tables := make([][][]byte, sh.Params.Tables)
	for j := range tables {
		tables[j] = make([][]byte, sh.Width)
		for pos := range tables[j] {
			tables[j][pos] = bytes.Clone(r.Take(BucketSize))
		}
	}
	stash := make([][]byte, sh.Params.StashSize)
	for pos := range stash {
		stash[pos] = bytes.Clone(r.Take(BucketSize))
	}
	x.params = sh.Params
	x.width = sh.Width
	x.n = sh.N
	x.tables = tables
	x.stash = stash
	x.stats = BuildStats{}
	return nil
}

const dynMagic = 0x50495345

// MarshalBinary encodes the dynamic index.
func (x *DynIndex) MarshalBinary() ([]byte, error) {
	payload := dynPayloadSize(x.params.Tables)
	encR := 0
	if x.width > 0 && x.params.Tables > 0 {
		encR = len(x.tables[0][0].EncR)
	}
	out := make([]byte, 0, IndexHeaderSize+x.params.Tables*x.width*(payload+encR))
	out = appendHeader(out, dynMagic, x.params, x.width, payload, encR)
	for _, tbl := range x.tables {
		for _, b := range tbl {
			if len(b.Masked) != payload || len(b.EncR) != encR {
				return nil, fmt.Errorf("core: inconsistent dynamic bucket sizes")
			}
			out = append(out, b.Masked...)
			out = append(out, b.EncR...)
		}
	}
	return out, nil
}

// UnmarshalBinary decodes a dynamic index produced by MarshalBinary.
func (x *DynIndex) UnmarshalBinary(data []byte) error {
	r := binfmt.NewReader(data)
	p, width, payload, encR, err := readHeader(&r, dynMagic, "dynamic index")
	if err != nil {
		return err
	}
	if payload != dynPayloadSize(p.Tables) {
		return fmt.Errorf("core: decode dynamic index: payload size %d, want %d", payload, dynPayloadSize(p.Tables))
	}
	if encR < 0 || encR > r.Len() {
		return fmt.Errorf("core: decode dynamic index: EncR size %d out of range", encR)
	}
	want, err := bodySize(p, width, 0, payload+encR)
	if err != nil {
		return err
	}
	if r.Len() != want {
		return fmt.Errorf("core: decode dynamic index: body %d bytes, want %d", r.Len(), want)
	}
	tables := make([][]DynBucket, p.Tables)
	for j := range tables {
		tables[j] = make([]DynBucket, width)
		for pos := range tables[j] {
			tables[j][pos] = DynBucket{Masked: bytes.Clone(r.Take(payload)), EncR: bytes.Clone(r.Take(encR))}
		}
	}
	x.params = p
	x.width = width
	x.tables = tables
	return nil
}
