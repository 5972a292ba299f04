package core

import (
	"math/rand"
	"testing"
)

// TestPlacementMatchesBuild pins the streaming build's core contract: for
// the same keys, items (in order) and params, a Placement fed in chunks
// reproduces Build's placement, so its whole projection answers every
// trapdoor with the exact identifier sequence of the monolithic index.
func TestPlacementMatchesBuild(t *testing.T) {
	const n = 2500
	keys := testKeys(t, 5)
	p := testParams(n)
	p.StashSize = 8
	rng := rand.New(rand.NewSource(19))
	items := randItems(rng, n, p.Tables)

	single, err := Build(keys, items, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	pl, err := NewPlacement(keys, p)
	if err != nil {
		t.Fatalf("NewPlacement: %v", err)
	}
	for lo := 0; lo < n; lo += 700 { // deliberately uneven final chunk
		hi := min(lo+700, n)
		if err := pl.Insert(items[lo:hi]); err != nil {
			t.Fatalf("Insert chunk [%d,%d): %v", lo, hi, err)
		}
	}
	if pl.Len() != n {
		t.Fatalf("placement holds %d items, want %d", pl.Len(), n)
	}
	streamed, err := pl.project(nil)
	if err != nil {
		t.Fatalf("project: %v", err)
	}
	if streamed.Width() != single.Width() || streamed.Len() != single.Len() {
		t.Fatalf("shape mismatch: streamed (w=%d n=%d), built (w=%d n=%d)",
			streamed.Width(), streamed.Len(), single.Width(), single.Len())
	}
	for q := 0; q < 60; q++ {
		meta := items[rng.Intn(n)].Meta
		td, err := GenTpdr(keys, meta, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.SecRec(td)
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamed.SecRec(td)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("query %d: %d ids streamed, %d built", q, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("query %d: id order diverged at %d: %d vs %d", q, i, got[i], want[i])
			}
		}
	}
}

// TestEncryptRangePartition checks the segment projection: over a partition
// of the identifier space into ranges, each id is recovered by exactly its
// own segment, and the union per trapdoor equals the monolithic result.
func TestEncryptRangePartition(t *testing.T) {
	const n = 2000
	keys := testKeys(t, 5)
	p := testParams(n)
	p.StashSize = 8
	rng := rand.New(rand.NewSource(23))
	items := randItems(rng, n, p.Tables)

	single, err := Build(keys, items, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pl, err := NewPlacement(keys, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Insert(items); err != nil {
		t.Fatal(err)
	}

	// Ranges over ids 1..n: [1,501), [501,1301), [1301,2001).
	bounds := [][2]uint64{{1, 501}, {501, 1301}, {1301, uint64(n) + 1}}
	segs := make([]*Index, len(bounds))
	total := 0
	for i, b := range bounds {
		seg, err := pl.EncryptRange(b[0], b[1])
		if err != nil {
			t.Fatalf("EncryptRange %v: %v", b, err)
		}
		if seg.Width() != single.Width() {
			t.Fatalf("segment %d width %d, monolithic %d", i, seg.Width(), single.Width())
		}
		total += seg.Len()
		segs[i] = seg
	}
	if total != n {
		t.Fatalf("segment lengths sum to %d, want %d", total, n)
	}

	for q := 0; q < 40; q++ {
		meta := items[rng.Intn(n)].Meta
		td, err := GenTpdr(keys, meta, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.SecRec(td)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[uint64]int)
		for s, seg := range segs {
			ids, err := seg.SecRec(td)
			if err != nil {
				t.Fatalf("segment %d SecRec: %v", s, err)
			}
			for _, id := range ids {
				if prev, dup := got[id]; dup {
					t.Fatalf("id %d recovered from segments %d and %d", id, prev, s)
				}
				if id < bounds[s][0] || id >= bounds[s][1] {
					t.Fatalf("id %d recovered from segment %d covering [%d,%d)", id, s, bounds[s][0], bounds[s][1])
				}
				got[id] = s
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: union %d ids, monolithic %d", q, len(got), len(want))
		}
		for _, id := range want {
			if _, ok := got[id]; !ok {
				t.Fatalf("query %d: id %d missing from segment union", q, id)
			}
		}
	}
}

func TestPlacementRejectsBadInput(t *testing.T) {
	keys := testKeys(t, 5)
	p := testParams(100)
	if _, err := NewPlacement(nil, p); err == nil {
		t.Error("nil keys accepted")
	}
	bad := p
	bad.Tables = 0
	if _, err := NewPlacement(keys, bad); err == nil {
		t.Error("invalid params accepted")
	}
	pl, err := NewPlacement(keys, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Insert([]Item{{ID: ^uint64(0)}}); err == nil {
		t.Error("reserved id accepted")
	}
	if _, err := pl.EncryptRange(5, 5); err == nil {
		t.Error("empty range accepted")
	}
}

// TestRecoverID pins the exported per-bucket unmask step against the
// private payload codec.
func TestRecoverID(t *testing.T) {
	payload := encodePayload(4242)
	mask := make([]byte, BucketSize)
	for i := range mask {
		mask[i] = byte(i * 7)
	}
	masked := make([]byte, BucketSize)
	for i := range masked {
		masked[i] = payload[i] ^ mask[i]
	}
	id, ok := RecoverID(masked, mask)
	if !ok || id != 4242 {
		t.Fatalf("RecoverID = (%d, %v), want (4242, true)", id, ok)
	}
	if _, ok := RecoverID(masked[:10], mask); ok {
		t.Error("short bucket accepted")
	}
	masked[3] ^= 0x40
	if _, ok := RecoverID(masked, mask); ok {
		t.Error("corrupted bucket decoded")
	}
}

// TestIndexShapeOffsets pins the on-disk layout contract: the offsets
// IndexShape computes address exactly the bytes MarshalBinary wrote for
// each bucket and stash slot.
func TestIndexShapeOffsets(t *testing.T) {
	const n = 300
	keys := testKeys(t, 5)
	p := testParams(n)
	p.StashSize = 4
	items := randItems(rand.New(rand.NewSource(5)), n, p.Tables)
	idx, err := Build(keys, items, p)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ParseIndexHeader(blob)
	if err != nil {
		t.Fatalf("ParseIndexHeader: %v", err)
	}
	if sh.Width != idx.Width() || sh.N != idx.Len() || sh.Params.Tables != p.Tables {
		t.Fatalf("parsed shape %+v does not match index (w=%d n=%d)", sh, idx.Width(), idx.Len())
	}
	if got, want := sh.EncodedSize(), int64(len(blob)); got != want {
		t.Fatalf("EncodedSize = %d, blob is %d bytes", got, want)
	}
	for _, probe := range []struct{ table, pos int }{{0, 0}, {1, 17}, {p.Tables - 1, idx.Width() - 1}} {
		want, err := idx.Bucket(probe.table, uint64(probe.pos))
		if err != nil {
			t.Fatal(err)
		}
		off := sh.BucketOffset(probe.table, uint64(probe.pos))
		got := blob[off : off+BucketSize]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bucket (%d,%d) byte %d: offset read %x, index %x", probe.table, probe.pos, i, got[i], want[i])
			}
		}
	}
	if off := sh.StashOffset(p.StashSize - 1); off+BucketSize != int64(len(blob)) {
		t.Fatalf("last stash slot ends at %d, blob is %d bytes", off+BucketSize, len(blob))
	}
}
