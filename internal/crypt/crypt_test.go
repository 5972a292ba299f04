package crypt

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func testKeys(t *testing.T, l int) *KeySet {
	t.Helper()
	ks, err := GenDeterministic("test-seed", l)
	if err != nil {
		t.Fatalf("GenDeterministic: %v", err)
	}
	return ks
}

func TestGenProducesDistinctKeys(t *testing.T) {
	ks, err := Gen(4)
	if err != nil {
		t.Fatalf("Gen: %v", err)
	}
	if got := ks.NumTables(); got != 4 {
		t.Fatalf("NumTables = %d, want 4", got)
	}
	seen := map[PRFKey]bool{}
	for _, k := range ks.Table {
		if seen[k] {
			t.Fatal("duplicate table key")
		}
		seen[k] = true
	}
	if bytes.Equal(ks.KS[:], ks.KR[:]) {
		t.Fatal("ks and kr identical")
	}
}

func TestGenRejectsBadL(t *testing.T) {
	if _, err := Gen(0); err == nil {
		t.Error("Gen(0) should fail")
	}
	if _, err := GenDeterministic("s", -1); err == nil {
		t.Error("GenDeterministic(-1) should fail")
	}
}

func TestGenDeterministicIsDeterministic(t *testing.T) {
	a, _ := GenDeterministic("seed-a", 3)
	b, _ := GenDeterministic("seed-a", 3)
	c, _ := GenDeterministic("seed-b", 3)
	for j := range a.Table {
		if a.Table[j] != b.Table[j] {
			t.Fatal("same seed should give same keys")
		}
		if a.Table[j] == c.Table[j] {
			t.Fatal("different seeds should give different keys")
		}
	}
}

func TestPosDeterministicAndKeyed(t *testing.T) {
	ks := testKeys(t, 2)
	v := []byte("lsh-value")
	if Pos(ks.Table[0], v) != Pos(ks.Table[0], v) {
		t.Error("Pos is not deterministic")
	}
	if Pos(ks.Table[0], v) == Pos(ks.Table[1], v) {
		t.Error("Pos should differ across keys")
	}
}

func TestPosProbeDomainSeparation(t *testing.T) {
	ks := testKeys(t, 1)
	v := []byte("abc")
	p0 := Pos(ks.Table[0], v)
	seen := map[uint64]bool{p0: true}
	for delta := 1; delta <= 8; delta++ {
		p := PosProbe(ks.Table[0], v, delta)
		if seen[p] {
			t.Fatalf("probe position collision at delta=%d", delta)
		}
		seen[p] = true
	}
}

// Pos must not confuse (v, δ) boundaries: ("ab", δ encoded as part) differs
// from concatenations that would collide under naive encoding.
func TestPosLengthPrefixedEncoding(t *testing.T) {
	ks := testKeys(t, 1)
	a := Pos(ks.Table[0], []byte("ab"), []byte("c"))
	b := Pos(ks.Table[0], []byte("a"), []byte("bc"))
	if a == b {
		t.Error("length-prefix encoding broken: part boundaries collide")
	}
}

func TestMaskProperties(t *testing.T) {
	ks := testKeys(t, 2)
	m1 := Mask(ks.Table[0], 0, 17, 32)
	m2 := Mask(ks.Table[0], 0, 17, 32)
	if !bytes.Equal(m1, m2) {
		t.Error("Mask not deterministic")
	}
	if bytes.Equal(m1, Mask(ks.Table[0], 1, 17, 32)) {
		t.Error("Mask should depend on table")
	}
	if bytes.Equal(m1, Mask(ks.Table[0], 0, 18, 32)) {
		t.Error("Mask should depend on position")
	}
	if bytes.Equal(m1, Mask(ks.Table[1], 0, 17, 32)) {
		t.Error("Mask should depend on key")
	}
	if got := len(Mask(ks.Table[0], 0, 0, 100)); got != 100 {
		t.Errorf("Mask length = %d, want 100", got)
	}
}

func TestStreamGExpansion(t *testing.T) {
	ks := testKeys(t, 1)
	r := []byte("random-value-r")
	a := StreamG(ks.Table[0], r, 64)
	b := StreamG(ks.Table[0], r, 64)
	if !bytes.Equal(a, b) {
		t.Error("StreamG not deterministic")
	}
	// Prefix property: expanding to a longer size keeps the prefix, since
	// re-masking relies on regenerating the same stream.
	long := StreamG(ks.Table[0], r, 128)
	if !bytes.Equal(a, long[:64]) {
		t.Error("StreamG prefix mismatch")
	}
	if bytes.Equal(a, StreamG(ks.Table[0], []byte("other"), 64)) {
		t.Error("StreamG should depend on r")
	}
}

func TestSubKeyDiffers(t *testing.T) {
	ks := testKeys(t, 1)
	a := SubKey(ks.Table[0], "rehash/1")
	b := SubKey(ks.Table[0], "rehash/2")
	if a == b || a == ks.Table[0] {
		t.Error("SubKey must derive distinct keys")
	}
}

func TestXOR(t *testing.T) {
	a := []byte{0xFF, 0x00, 0xAA}
	b := []byte{0x0F, 0xF0, 0xAA}
	dst := make([]byte, 3)
	XOR(dst, a, b)
	want := []byte{0xF0, 0xF0, 0x00}
	if !bytes.Equal(dst, want) {
		t.Errorf("XOR = %x, want %x", dst, want)
	}
	// In-place aliasing.
	XOR(a, a, b)
	if !bytes.Equal(a, want) {
		t.Errorf("in-place XOR = %x, want %x", a, want)
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	ks := testKeys(t, 1)
	for _, size := range []int{0, 1, 15, 16, 17, 1000} {
		pt, err := RandBytes(size)
		if err != nil {
			t.Fatalf("RandBytes: %v", err)
		}
		ct, err := Enc(ks.KS, pt)
		if err != nil {
			t.Fatalf("Enc: %v", err)
		}
		if len(ct) != size+Overhead {
			t.Errorf("ciphertext size %d, want %d", len(ct), size+Overhead)
		}
		got, err := Dec(ks.KS, ct)
		if err != nil {
			t.Fatalf("Dec: %v", err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("round trip mismatch at size %d", size)
		}
	}
}

func TestEncIsProbabilistic(t *testing.T) {
	ks := testKeys(t, 1)
	pt := []byte("same message")
	c1, _ := Enc(ks.KS, pt)
	c2, _ := Enc(ks.KS, pt)
	if bytes.Equal(c1, c2) {
		t.Error("two encryptions of the same message are identical (no semantic security)")
	}
}

func TestDecRejectsTampering(t *testing.T) {
	ks := testKeys(t, 1)
	ct, _ := Enc(ks.KS, []byte("payload"))
	for _, idx := range []int{0, len(ct) / 2, len(ct) - 1} {
		bad := append([]byte(nil), ct...)
		bad[idx] ^= 0x01
		if _, err := Dec(ks.KS, bad); !errors.Is(err, ErrAuthentication) {
			t.Errorf("tamper at %d: err = %v, want ErrAuthentication", idx, err)
		}
	}
}

func TestDecRejectsWrongKey(t *testing.T) {
	ks := testKeys(t, 1)
	ct, _ := Enc(ks.KS, []byte("payload"))
	if _, err := Dec(ks.KR, ct); !errors.Is(err, ErrAuthentication) {
		t.Errorf("wrong key: err = %v, want ErrAuthentication", err)
	}
}

func TestDecRejectsTruncated(t *testing.T) {
	ks := testKeys(t, 1)
	if _, err := Dec(ks.KS, make([]byte, Overhead-1)); !errors.Is(err, ErrCiphertextTooShort) {
		t.Errorf("err = %v, want ErrCiphertextTooShort", err)
	}
}

func TestUint64Codec(t *testing.T) {
	for _, v := range []uint64{0, 1, math.MaxUint64, 1 << 40} {
		if got := DecodeUint64(EncodeUint64(v)); got != v {
			t.Errorf("uint64 round trip %d -> %d", v, got)
		}
	}
}

func TestProfileCodecRoundTrip(t *testing.T) {
	s := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)}
	got, err := DecodeProfile(EncodeProfile(s))
	if err != nil {
		t.Fatalf("DecodeProfile: %v", err)
	}
	if len(got) != len(s) {
		t.Fatalf("dim %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Errorf("entry %d: %v != %v", i, got[i], s[i])
		}
	}
}

func TestDecodeProfileRejectsMalformed(t *testing.T) {
	if _, err := DecodeProfile([]byte{1, 2}); err == nil {
		t.Error("short header accepted")
	}
	enc := EncodeProfile([]float64{1, 2, 3})
	if _, err := DecodeProfile(enc[:len(enc)-1]); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestEncDecProfile(t *testing.T) {
	ks := testKeys(t, 1)
	s := []float64{0.25, 0.5, 0.25}
	ct, err := EncProfile(ks.KS, s)
	if err != nil {
		t.Fatalf("EncProfile: %v", err)
	}
	got, err := DecProfile(ks.KS, ct)
	if err != nil {
		t.Fatalf("DecProfile: %v", err)
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("profile round trip mismatch: %v vs %v", got, s)
		}
	}
	if _, err := DecProfile(ks.KR, ct); err == nil {
		t.Error("DecProfile with wrong key should fail")
	}
}

// TestDecProfileScratchReuse decrypts profiles of shrinking and growing
// sizes back to back: the pooled plaintext scratch must never leak one
// profile's bytes into the next.
func TestDecProfileScratchReuse(t *testing.T) {
	ks := testKeys(t, 1)
	for _, dim := range []int{64, 3, 0, 200, 1} {
		s := make([]float64, dim)
		for i := range s {
			s[i] = float64(dim*1000 + i)
		}
		for _, enc := range []func(EncKey, []float64) ([]byte, error){EncProfile, EncProfileCompact} {
			ct, err := enc(ks.KS, s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecProfile(ks.KS, ct)
			if err != nil || len(got) != dim {
				t.Fatalf("dim %d: got %d entries, err %v", dim, len(got), err)
			}
			for i := range s {
				if got[i] != s[i] {
					t.Fatalf("dim %d entry %d: %v, want %v", dim, i, got[i], s[i])
				}
			}
		}
	}
}

func TestTag(t *testing.T) {
	ks := testKeys(t, 1)
	ct, err := Enc(ks.KS, []byte("profile"))
	if err != nil {
		t.Fatal(err)
	}
	tag, ok := Tag(ct)
	if !ok || !bytes.Equal(tag[:], ct[len(ct)-MACSize:]) {
		t.Fatalf("Tag = %x, %v; want the ciphertext's last %d bytes", tag, ok, MACSize)
	}
	again, err := Enc(ks.KS, []byte("profile"))
	if err != nil {
		t.Fatal(err)
	}
	if other, _ := Tag(again); other == tag {
		t.Fatal("two encryptions of one plaintext share a tag")
	}
	if _, ok := Tag(ct[:Overhead-1]); ok {
		t.Fatal("Tag accepted a ciphertext too short to carry one")
	}
}

// Property: Enc/Dec round-trips arbitrary payloads.
func TestEncDecRoundTripProperty(t *testing.T) {
	ks := testKeys(t, 1)
	f := func(pt []byte) bool {
		ct, err := Enc(ks.KS, pt)
		if err != nil {
			return false
		}
		got, err := Dec(ks.KS, ct)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: XOR masking is an involution — (m ^ x) ^ m == x. This is the
// correctness core of bucket encryption B = r ⊕ L.
func TestMaskInvolutionProperty(t *testing.T) {
	ks := testKeys(t, 1)
	f := func(payload [32]byte, table uint8, pos uint16) bool {
		m := Mask(ks.Table[0], int(table), uint64(pos), 32)
		enc := make([]byte, 32)
		XOR(enc, m, payload[:])
		dec := make([]byte, 32)
		XOR(dec, m, enc)
		return bytes.Equal(dec, payload[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: profile codec round-trips arbitrary finite vectors.
func TestProfileCodecProperty(t *testing.T) {
	f := func(s []float64) bool {
		got, err := DecodeProfile(EncodeProfile(s))
		if err != nil || len(got) != len(s) {
			return false
		}
		for i := range s {
			if got[i] != s[i] && !(math.IsNaN(got[i]) && math.IsNaN(s[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPos(b *testing.B) {
	ks, _ := GenDeterministic("bench", 1)
	v := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pos(ks.Table[0], v)
	}
}

func BenchmarkEncProfile1000(b *testing.B) {
	ks, _ := GenDeterministic("bench", 1)
	s := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncProfile(ks.KS, s); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompactProfileCodec(t *testing.T) {
	ks := testKeys(t, 1)
	s := []float64{0.25, 0.5, 0.125, 0}
	// Plain codec auto-detects both encodings.
	got, err := DecodeProfile(EncodeProfileCompact(s))
	if err != nil {
		t.Fatalf("DecodeProfile(compact): %v", err)
	}
	for i := range s {
		if got[i] != s[i] { // exact dyadic values survive float32
			t.Fatalf("compact round trip %v vs %v", got, s)
		}
	}
	// Compact ciphertexts are about half the size.
	full, err := EncProfile(ks.KS, make([]float64, 1000))
	if err != nil {
		t.Fatal(err)
	}
	compact, err := EncProfileCompact(ks.KS, make([]float64, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(compact) >= len(full) {
		t.Errorf("compact %d >= full %d", len(compact), len(full))
	}
	if len(compact) != 4+4*1000+Overhead {
		t.Errorf("compact size %d", len(compact))
	}
	// Decryption path handles both.
	if _, err := DecProfile(ks.KS, compact); err != nil {
		t.Errorf("DecProfile(compact): %v", err)
	}
	// Truncation detected.
	enc := EncodeProfileCompact(s)
	if _, err := DecodeProfile(enc[:len(enc)-1]); err == nil {
		t.Error("truncated compact profile accepted")
	}
}

// TestDecodedProfileMatchesDecProfile: DecodedProfile predicts, bit for
// bit, what decryption returns in both encodings, and leaves its input
// alone.
func TestDecodedProfileMatchesDecProfile(t *testing.T) {
	ks := testKeys(t, 1)
	s := []float64{0.1, 1.0 / 3, 0.25, math.Pi / 7, 0, 1e-40}
	orig := append([]float64(nil), s...)
	for _, compact := range []bool{false, true} {
		enc := EncProfile
		if compact {
			enc = EncProfileCompact
		}
		ct, err := enc(ks.KS, s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecProfile(ks.KS, ct)
		if err != nil {
			t.Fatal(err)
		}
		got := DecodedProfile(s, compact)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("compact=%v: entry %d is %v, decryption gives %v", compact, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("compact=%v: %d entries, decryption gives %d", compact, len(got), len(want))
		}
		got[0] = -1
		if s[0] != orig[0] {
			t.Fatalf("compact=%v: DecodedProfile aliases its input", compact)
		}
	}
}

func TestCompactProfilePrecision(t *testing.T) {
	// Unit-norm profile entries survive float32 with relative error
	// far below any ranking-visible threshold.
	s := make([]float64, 100)
	for i := range s {
		s[i] = 1.0 / math.Sqrt(100)
	}
	got, err := DecodeProfile(EncodeProfileCompact(s))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if math.Abs(got[i]-s[i]) > 1e-7 {
			t.Fatalf("entry %d error %v", i, math.Abs(got[i]-s[i]))
		}
	}
}

func TestKeySetCodecRoundTrip(t *testing.T) {
	ks := testKeys(t, 6)
	blob, err := ks.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got KeySet
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if got.NumTables() != 6 {
		t.Fatalf("tables = %d", got.NumTables())
	}
	for j := range ks.Table {
		if got.Table[j] != ks.Table[j] {
			t.Fatal("table key changed")
		}
	}
	if got.KS != ks.KS || got.KR != ks.KR || got.KG != ks.KG {
		t.Fatal("scalar keys changed")
	}
	// Restored keys decrypt ciphertexts from the original.
	ct, err := Enc(ks.KS, []byte("persist me"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dec(got.KS, ct); err != nil {
		t.Errorf("restored key failed to decrypt: %v", err)
	}
}

func TestKeySetCodecRejectsMalformed(t *testing.T) {
	var ks KeySet
	if err := ks.UnmarshalBinary([]byte{1}); err == nil {
		t.Error("short blob accepted")
	}
	empty := &KeySet{}
	if _, err := empty.MarshalBinary(); err == nil {
		t.Error("empty key set encoded")
	}
	good := testKeys(t, 2)
	blob, _ := good.MarshalBinary()
	blob[0] ^= 1
	if err := ks.UnmarshalBinary(blob); err == nil {
		t.Error("bad magic accepted")
	}
	blob[0] ^= 1
	if err := ks.UnmarshalBinary(blob[:len(blob)-4]); err == nil {
		t.Error("truncated blob accepted")
	}
}
