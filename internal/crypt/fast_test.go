package crypt

import (
	"bytes"
	"runtime"
	"testing"
)

// TestPos8MatchesPos pins the fast path to the generic framing: positions
// derived via a precomputed PRF must equal the allocating package-level
// functions bit for bit, or trapdoors and indexes built through different
// paths would diverge.
func TestPos8MatchesPos(t *testing.T) {
	keys, err := GenDeterministic("fast-path", 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		p := keys.TablePRF(j)
		for _, v := range []uint64{0, 1, 42, 1 << 32, ^uint64(0)} {
			if got, want := p.Pos8(v), Pos(keys.Table[j], EncodeUint64(v)); got != want {
				t.Errorf("table %d Pos8(%d) = %d, want %d", j, v, got, want)
			}
			for _, delta := range []int{1, 7, 30} {
				got := p.Pos8Probe(v, delta)
				want := PosProbe(keys.Table[j], EncodeUint64(v), delta)
				if got != want {
					t.Errorf("table %d Pos8Probe(%d,%d) = %d, want %d", j, v, delta, got, want)
				}
			}
		}
	}
}

// TestMaskIntoMatchesMask covers single-block, block-aligned and ragged
// expansion sizes.
func TestMaskIntoMatchesMask(t *testing.T) {
	keys, err := GenDeterministic("fast-path", 2)
	if err != nil {
		t.Fatal(err)
	}
	p := keys.TablePRF(1)
	for _, size := range []int{1, 31, 32, 64, 96, 100} {
		dst := make([]byte, size)
		p.MaskInto(dst, 1, 77)
		want := Mask(keys.Table[1], 1, 77, size)
		if !bytes.Equal(dst, want) {
			t.Errorf("MaskInto size %d diverges from Mask", size)
		}
	}
}

func TestStreamGIntoMatchesStreamG(t *testing.T) {
	keys, err := GenDeterministic("fast-path", 2)
	if err != nil {
		t.Fatal(err)
	}
	p := keys.GPRF()
	r := []byte("0123456789abcdef")
	for _, size := range []int{1, 32, 33, 96, 200} {
		dst := make([]byte, size)
		p.StreamGInto(dst, r)
		want := StreamG(keys.KG, r, size)
		if !bytes.Equal(dst, want) {
			t.Errorf("StreamGInto size %d diverges from StreamG", size)
		}
	}
}

// TestExpandExactSize guards the over-allocation fix: expansion outputs
// must not retain excess backing capacity.
func TestExpandExactSize(t *testing.T) {
	keys, err := GenDeterministic("fast-path", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 32, 33, 100} {
		out := Mask(keys.Table[0], 0, 0, size)
		if len(out) != size || cap(out) != size {
			t.Errorf("Mask(size=%d): len=%d cap=%d, want exact", size, len(out), cap(out))
		}
		out = StreamG(keys.KG, []byte("r"), size)
		if len(out) != size || cap(out) != size {
			t.Errorf("StreamG(size=%d): len=%d cap=%d, want exact", size, len(out), cap(out))
		}
	}
}

// TestEncFromSeededDRBG checks that ciphertexts drawn from a deterministic
// DRBG decrypt and that the DRBG reproduces them seed-for-seed.
func TestEncFromSeededDRBG(t *testing.T) {
	keys, err := GenDeterministic("fast-path", 1)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("the quick brown fox")
	var seed [DRBGSeedSize]byte
	seed[0] = 9
	ct1, err := EncFrom(keys.KR, pt, NewSeededDRBG(seed))
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := EncFrom(keys.KR, pt, NewSeededDRBG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct1, ct2) {
		t.Error("same DRBG seed produced different ciphertexts")
	}
	got, err := Dec(keys.KR, ct1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Errorf("roundtrip = %q, want %q", got, pt)
	}
}

// TestFastPathAllocs is the allocation regression gate of the fast path:
// the per-call PRF primitives must not allocate at all, and Enc/Dec must
// stay within their fixed output allocations.
func TestFastPathAllocs(t *testing.T) {
	keys, err := GenDeterministic("fast-path", 2)
	if err != nil {
		t.Fatal(err)
	}
	p := keys.TablePRF(0)
	g := keys.GPRF()
	buf := make([]byte, 96)
	r := []byte("0123456789abcdef")

	assertAllocs := func(name string, max float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, fn); got > max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", name, got, max)
		}
	}
	assertAllocs("Pos8", 0, func() { p.Pos8(12345) })
	assertAllocs("Pos8Probe", 0, func() { p.Pos8Probe(12345, 3) })
	assertAllocs("MaskInto", 0, func() { p.MaskInto(buf, 0, 7) })
	assertAllocs("StreamGInto", 0, func() { g.StreamGInto(buf, r) })
	assertAllocs("XOR", 0, func() { XOR(buf, buf, buf) })
	// Package-level Pos still allocates its return path at most once.
	assertAllocs("Pos", 1, func() { Pos(keys.Table[0], r) })

	pt := make([]byte, 64)
	drbg := NewSeededDRBG([DRBGSeedSize]byte{1})
	ct, err := EncFrom(keys.KR, pt, drbg)
	if err != nil {
		t.Fatal(err)
	}
	// Enc: ciphertext buffer plus bounded scratch; Dec: plaintext buffer
	// plus bounded scratch. The bound catches any return to per-call
	// hmac.New / aes.NewCipher (dozens of allocations).
	assertAllocs("EncFrom", 4, func() {
		if _, err := EncFrom(keys.KR, pt, drbg); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs("Dec", 4, func() {
		if _, err := Dec(keys.KR, ct); err != nil {
			t.Fatal(err)
		}
	})
	// DecProfile allocates the returned vector (8 KB at dim 1000) but stages
	// the equally large plaintext encoding in a pooled scratch. Gated in
	// bytes, with headroom for the pool misses the race detector injects.
	profCt, err := EncProfile(keys.KS, make([]float64, 1000))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := DecProfile(keys.KS, profCt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 12<<10 {
		t.Errorf("DecProfile: %d bytes/op, want one 8 KB vector, not vector plus plaintext", got)
	}
	assertAllocs("DRBG.Fill", 0, func() { drbg.Fill(buf) })
}

// BenchmarkPos8 measures the precomputed position PRF (Fig. 5(c)'s
// dominant operation).
func BenchmarkPos8(b *testing.B) {
	keys, err := GenDeterministic("bench", 1)
	if err != nil {
		b.Fatal(err)
	}
	p := keys.TablePRF(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Pos8(uint64(i))
	}
}

// BenchmarkMaskInto measures one bucket-mask derivation into a reused
// buffer.
func BenchmarkMaskInto(b *testing.B) {
	keys, err := GenDeterministic("bench", 1)
	if err != nil {
		b.Fatal(err)
	}
	p := keys.TablePRF(0)
	var mask [32]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.MaskInto(mask[:], 0, uint64(i))
	}
}

// BenchmarkDRBGFill measures padding generation throughput per 32-byte
// bucket.
func BenchmarkDRBGFill(b *testing.B) {
	drbg := NewSeededDRBG([DRBGSeedSize]byte{1})
	var bucket [32]byte
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drbg.Fill(bucket[:])
	}
}
