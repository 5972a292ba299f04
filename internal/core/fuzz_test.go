package core

import (
	"encoding/binary"
	"testing"

	"pisd/internal/crypt"
	"pisd/internal/lsh"
)

// Fuzz targets for the cloud-facing binary decoders: whatever bytes an
// untrusted party feeds them, they must fail cleanly, never panic, and
// round-trip anything they accept.

func FuzzIndexUnmarshal(f *testing.F) {
	keys, err := testFuzzKeys(5)
	if err != nil {
		f.Fatal(err)
	}
	p := Params{Tables: 5, Capacity: 100, ProbeRange: 2, MaxLoop: 50, Seed: 1}
	idx, err := Build(keys, []Item{{ID: 1, Meta: lsh.Metadata{1, 2, 3, 4, 5}}}, p)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := idx.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:20])
	f.Add(wrappingHeader(indexMagic, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var x Index
		if err := x.UnmarshalBinary(data); err != nil {
			return
		}
		// Accepted input must re-encode to an equivalent blob.
		out, err := x.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode accepted index: %v", err)
		}
		if len(out) != len(data) {
			t.Fatalf("re-encode length %d != %d", len(out), len(data))
		}
	})
}

func FuzzDynIndexUnmarshal(f *testing.F) {
	keys, err := testFuzzKeys(3)
	if err != nil {
		f.Fatal(err)
	}
	p := Params{Tables: 3, Capacity: 60, ProbeRange: 2, MaxLoop: 50, Seed: 1}
	idx, _, err := BuildDynamic(keys, []Item{{ID: 1, Meta: lsh.Metadata{1, 2, 3}}}, p)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := idx.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{0})
	f.Add(wrappingHeader(dynMagic, uint64(dynPayloadSize(1<<59)), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var x DynIndex
		if err := x.UnmarshalBinary(data); err != nil {
			return
		}
		if _, err := x.MarshalBinary(); err != nil {
			t.Fatalf("re-encode accepted dynamic index: %v", err)
		}
	})
}

// FuzzStaticPayload covers the static bucket payload codec from both
// directions: encodePayload(id) must always decode back to (id, true), and
// arbitrary unmasked bucket bytes must either be rejected as padding or
// carry a correctly self-checking identifier.
func FuzzStaticPayload(f *testing.F) {
	valid := encodePayload(42)
	f.Add(valid[:], uint64(7))
	f.Add(make([]byte, BucketSize), uint64(0))
	f.Add([]byte{}, ^uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, id uint64) {
		// Direction 1: encode→decode is the identity for every id,
		// including the reserved ⊥ marker.
		enc := encodePayload(id)
		got, ok := decodePayload(enc)
		if !ok || got != id {
			t.Fatalf("encodePayload(%d) decoded to (%d, %v)", id, got, ok)
		}
		// Direction 2: arbitrary bucket bytes. Anything accepted must
		// re-encode to a payload with identical id+check prefix — i.e. the
		// 8-byte integrity tag really binds the identifier.
		var b [BucketSize]byte
		copy(b[:], raw)
		if did, ok := decodePayload(b); ok {
			re := encodePayload(did)
			for i := 0; i < 16; i++ {
				if re[i] != b[i] {
					t.Fatalf("accepted payload %x re-encodes to %x", b[:16], re[:16])
				}
			}
		}
		// Tampering any byte of the id or tag must flip acceptance off
		// (an id change without a matching tag cannot survive).
		for i := 0; i < 16; i++ {
			tam := enc
			tam[i] ^= 1
			if tid, ok := decodePayload(tam); ok && tid == id {
				t.Fatalf("byte %d flip kept payload valid for id %d", i, id)
			}
		}
	})
}

func FuzzDecodeDynPayload(f *testing.F) {
	f.Add(encodeDynPayload(42, lsh.Metadata{1, 2, 3}, 3), 3)
	f.Add([]byte{}, 3)
	f.Fuzz(func(t *testing.T, data []byte, tables int) {
		if tables < 0 || tables > 64 {
			return
		}
		id, meta, ok := decodeDynPayload(data, tables)
		if !ok {
			return
		}
		re := encodeDynPayload(id, meta, tables)
		if string(re) != string(data) {
			t.Fatalf("accepted payload does not round trip")
		}
	})
}

// wrappingHeader is a bare 60-byte index header with tables = capacity =
// 2^59 and width 1, whose last two fields are the static index's n and
// stash or the dynamic index's payload and ciphertext sizes. Multiplied
// out, its body size wraps a 64-bit integer: to 0 for the static index,
// whose body is then "as long as" the empty one behind the header.
func wrappingHeader(magic uint32, f6, f7 uint64) []byte {
	h := binary.BigEndian.AppendUint32(nil, magic)
	for _, v := range []uint64{1 << 59, 1 << 59, 0, 1, 1, f6, f7} { // tables, capacity, d, max loop, width
		h = binary.BigEndian.AppendUint64(h, v)
	}
	return h
}

// TestIndexHeaderSizeOverflow pins the size check of the index header
// parse: a header whose body size wraps must be refused, not allocated
// from (it once panicked the server that received it as an InstallIndex
// body).
func TestIndexHeaderSizeOverflow(t *testing.T) {
	static := wrappingHeader(indexMagic, 0, 0)
	if len(static) != IndexHeaderSize {
		t.Fatalf("header is %d bytes, want %d", len(static), IndexHeaderSize)
	}
	if sh, err := ParseIndexHeader(static); err == nil {
		t.Fatalf("ParseIndexHeader accepted a wrapping shape %+v", sh)
	}
	var x Index
	if err := x.UnmarshalBinary(static); err == nil {
		t.Fatal("Index.UnmarshalBinary accepted a wrapping header")
	}
	var d DynIndex
	if err := d.UnmarshalBinary(wrappingHeader(dynMagic, uint64(dynPayloadSize(1<<59)), 0)); err == nil {
		t.Fatal("DynIndex.UnmarshalBinary accepted a wrapping header")
	}
}

func testFuzzKeys(l int) (*crypt.KeySet, error) {
	return crypt.GenDeterministic("fuzz", l)
}
