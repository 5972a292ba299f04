package core

import (
	"encoding/binary"
	"fmt"
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
	if len(data) < IndexHeaderSize {
		return IndexShape{}, fmt.Errorf("core: index encoding too short (%d bytes)", len(data))
	}
	if binary.BigEndian.Uint32(data) != indexMagic {
		return IndexShape{}, fmt.Errorf("core: bad index magic")
	}
	sh := IndexShape{
		Params: Params{
			Tables:     int(binary.BigEndian.Uint64(data[4:])),
			Capacity:   int(binary.BigEndian.Uint64(data[12:])),
			ProbeRange: int(binary.BigEndian.Uint64(data[20:])),
			MaxLoop:    int(binary.BigEndian.Uint64(data[28:])),
			StashSize:  int(binary.BigEndian.Uint64(data[52:])),
		},
		Width: int(binary.BigEndian.Uint64(data[36:])),
		N:     int(binary.BigEndian.Uint64(data[44:])),
	}
	if err := sh.Params.Validate(); err != nil {
		return IndexShape{}, fmt.Errorf("core: decode index: %w", err)
	}
	if sh.Width < 1 || sh.Width > sh.Params.Capacity {
		return IndexShape{}, fmt.Errorf("core: decode index: width %d out of range", sh.Width)
	}
	return sh, nil
}

// Shape returns the index's encoded geometry.
func (x *Index) Shape() IndexShape {
	return IndexShape{Params: x.params, Width: x.width, N: x.n}
}

// MarshalBinary encodes the static index.
func (x *Index) MarshalBinary() ([]byte, error) {
	header := make([]byte, IndexHeaderSize)
	binary.BigEndian.PutUint32(header[0:], indexMagic)
	binary.BigEndian.PutUint64(header[4:], uint64(x.params.Tables))
	binary.BigEndian.PutUint64(header[12:], uint64(x.params.Capacity))
	binary.BigEndian.PutUint64(header[20:], uint64(x.params.ProbeRange))
	binary.BigEndian.PutUint64(header[28:], uint64(x.params.MaxLoop))
	binary.BigEndian.PutUint64(header[36:], uint64(x.width))
	binary.BigEndian.PutUint64(header[44:], uint64(x.n))
	binary.BigEndian.PutUint64(header[52:], uint64(len(x.stash)))
	out := make([]byte, 0, len(header)+(x.params.Tables*x.width+len(x.stash))*BucketSize)
	out = append(out, header...)
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
	p, width, n, stashSize := sh.Params, sh.Width, sh.N, sh.Params.StashSize
	body := data[IndexHeaderSize:]
	want := (p.Tables*width + stashSize) * BucketSize
	if len(body) != want {
		return fmt.Errorf("core: decode index: body %d bytes, want %d", len(body), want)
	}
	tables := make([][][]byte, p.Tables)
	off := 0
	for j := range tables {
		buckets := make([][]byte, width)
		for pos := 0; pos < width; pos++ {
			buckets[pos] = append([]byte(nil), body[off:off+BucketSize]...)
			off += BucketSize
		}
		tables[j] = buckets
	}
	stash := make([][]byte, stashSize)
	for pos := range stash {
		stash[pos] = append([]byte(nil), body[off:off+BucketSize]...)
		off += BucketSize
	}
	x.params = p
	x.width = width
	x.n = n
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
	header := make([]byte, 4+8*7)
	binary.BigEndian.PutUint32(header[0:], dynMagic)
	binary.BigEndian.PutUint64(header[4:], uint64(x.params.Tables))
	binary.BigEndian.PutUint64(header[12:], uint64(x.params.Capacity))
	binary.BigEndian.PutUint64(header[20:], uint64(x.params.ProbeRange))
	binary.BigEndian.PutUint64(header[28:], uint64(x.params.MaxLoop))
	binary.BigEndian.PutUint64(header[36:], uint64(x.width))
	binary.BigEndian.PutUint64(header[44:], uint64(payload))
	binary.BigEndian.PutUint64(header[52:], uint64(encR))
	out := make([]byte, 0, len(header)+x.params.Tables*x.width*(payload+encR))
	out = append(out, header...)
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
	if len(data) < 4+8*7 {
		return fmt.Errorf("core: dynamic index encoding too short")
	}
	if binary.BigEndian.Uint32(data) != dynMagic {
		return fmt.Errorf("core: bad dynamic index magic")
	}
	p := Params{
		Tables:     int(binary.BigEndian.Uint64(data[4:])),
		Capacity:   int(binary.BigEndian.Uint64(data[12:])),
		ProbeRange: int(binary.BigEndian.Uint64(data[20:])),
		MaxLoop:    int(binary.BigEndian.Uint64(data[28:])),
	}
	width := int(binary.BigEndian.Uint64(data[36:]))
	payload := int(binary.BigEndian.Uint64(data[44:]))
	encR := int(binary.BigEndian.Uint64(data[52:]))
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: decode dynamic index: %w", err)
	}
	if payload != dynPayloadSize(p.Tables) {
		return fmt.Errorf("core: decode dynamic index: payload size %d, want %d", payload, dynPayloadSize(p.Tables))
	}
	if width < 1 || encR < 0 {
		return fmt.Errorf("core: decode dynamic index: bad shape")
	}
	body := data[4+8*7:]
	per := payload + encR
	if len(body) != p.Tables*width*per {
		return fmt.Errorf("core: decode dynamic index: body %d bytes, want %d", len(body), p.Tables*width*per)
	}
	tables := make([][]DynBucket, p.Tables)
	off := 0
	for j := range tables {
		row := make([]DynBucket, width)
		for pos := 0; pos < width; pos++ {
			row[pos] = DynBucket{
				Masked: append([]byte(nil), body[off:off+payload]...),
				EncR:   append([]byte(nil), body[off+payload:off+per]...),
			}
			off += per
		}
		tables[j] = row
	}
	x.params = p
	x.width = width
	x.tables = tables
	return nil
}
