// Package crypt implements the cryptographic substrate of the PISD system:
// the keyed pseudo-random functions f, g, G used to permute bucket positions
// and derive bucket masks, the key generation function Gen(1^λ), and the
// semantically secure symmetric encryption Enc/Dec used for image profiles
// and images (Sec. II-B of the paper).
//
// PRFs are HMAC-SHA256 (the paper implements PRFs "by cryptographic hash
// functions"); encryption is AES-128-CTR with an encrypt-then-MAC
// HMAC-SHA256 tag, matching the paper's AES-128 + SHA-2 instantiation while
// adding integrity so a tampering cloud is detected.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

const (
	// PRFKeySize is the byte length of a PRF key.
	PRFKeySize = 32
	// EncKeySize is the byte length of a symmetric encryption key (AES-128).
	EncKeySize = 16
	// MACSize is the byte length of the authentication tag.
	MACSize = 32
	// ivSize is the AES-CTR initialization vector length.
	ivSize = aes.BlockSize
	// Overhead is the ciphertext expansion of Enc: IV plus MAC tag.
	Overhead = ivSize + MACSize
)

var (
	// ErrInvalidKeySize reports a key of unexpected length.
	ErrInvalidKeySize = errors.New("crypt: invalid key size")
	// ErrCiphertextTooShort reports a truncated ciphertext.
	ErrCiphertextTooShort = errors.New("crypt: ciphertext too short")
	// ErrAuthentication reports MAC verification failure (tampering or
	// wrong key).
	ErrAuthentication = errors.New("crypt: message authentication failed")
)

// PRFKey is a key for the pseudo-random functions f, g and G.
type PRFKey [PRFKeySize]byte

// EncKey is a key for the symmetric encryption scheme.
type EncKey [EncKeySize]byte

// KeySet is the secret key material K = (k_1, ..., k_l, k_s) output by
// Gen(1^λ), extended with k_r for the dynamic index (Sec. III-D).
type KeySet struct {
	// Table holds one PRF key per LSH hash table; Table[j] secures both
	// positions (f) and masks (g, G) of table j via domain separation.
	Table []PRFKey
	// KS encrypts user image profiles (S* = Enc(ks, S)).
	KS EncKey
	// KR encrypts the per-bucket random values r in the dynamic scheme.
	KR EncKey
	// KG keys the PRF G(·) that expands a bucket's random value r into its
	// mask in the dynamic scheme.
	KG PRFKey
}

// NumTables returns l, the number of per-table keys.
func (k *KeySet) NumTables() int { return len(k.Table) }

// Gen generates fresh keys for l hash tables from crypto/rand,
// implementing K ← Gen(1^λ). The security parameter is fixed by the key
// sizes above (λ = 128 for encryption, 256 for PRFs).
func Gen(l int) (*KeySet, error) {
	if l < 1 {
		return nil, fmt.Errorf("crypt: number of tables must be >= 1, got %d", l)
	}
	ks := &KeySet{Table: make([]PRFKey, l)}
	for j := range ks.Table {
		if _, err := io.ReadFull(rand.Reader, ks.Table[j][:]); err != nil {
			return nil, fmt.Errorf("crypt: generate table key: %w", err)
		}
	}
	if _, err := io.ReadFull(rand.Reader, ks.KS[:]); err != nil {
		return nil, fmt.Errorf("crypt: generate ks: %w", err)
	}
	if _, err := io.ReadFull(rand.Reader, ks.KR[:]); err != nil {
		return nil, fmt.Errorf("crypt: generate kr: %w", err)
	}
	if _, err := io.ReadFull(rand.Reader, ks.KG[:]); err != nil {
		return nil, fmt.Errorf("crypt: generate kg: %w", err)
	}
	return ks, nil
}

// GenDeterministic derives a KeySet from a seed. It exists so that tests and
// benchmarks are reproducible; production callers must use Gen.
func GenDeterministic(seed string, l int) (*KeySet, error) {
	if l < 1 {
		return nil, fmt.Errorf("crypt: number of tables must be >= 1, got %d", l)
	}
	ks := &KeySet{Table: make([]PRFKey, l)}
	for j := range ks.Table {
		ks.Table[j] = PRFKey(sha256.Sum256([]byte(fmt.Sprintf("%s/table/%d", seed, j))))
	}
	kd := sha256.Sum256([]byte(seed + "/ks"))
	copy(ks.KS[:], kd[:EncKeySize])
	kr := sha256.Sum256([]byte(seed + "/kr"))
	copy(ks.KR[:], kr[:EncKeySize])
	ks.KG = PRFKey(sha256.Sum256([]byte(seed + "/kg")))
	return ks, nil
}

// prf computes HMAC-SHA256(key, label || parts...) with an unambiguous
// length-prefixed encoding of each part. It routes through the
// precomputed-state fast path (prf.go); the output is bit-identical to the
// generic hmac.New construction.
func prf(key PRFKey, label byte, parts ...[]byte) [32]byte {
	var out [32]byte
	ForKey(key).sum(&out, label, parts...)
	return out
}

// Domain-separation labels for the three PRFs of the paper.
const (
	labelPos  = 0x01 // f: bucket positions
	labelMask = 0x02 // g: static bucket masks
	labelG    = 0x03 // G: dynamic bucket masks from random r
	labelSub  = 0x04 // subkey derivation
)

// Pos implements the position PRF f(k_j, ·): it maps the given parts to a
// pseudo-random uint64. Callers reduce it modulo the table width.
func Pos(key PRFKey, parts ...[]byte) uint64 {
	out := prf(key, labelPos, parts...)
	return binary.BigEndian.Uint64(out[:8])
}

// PosProbe is Pos for the δ-th random probe position: f(k_j, v || δ).
func PosProbe(key PRFKey, v []byte, delta int) uint64 {
	var d [4]byte
	binary.BigEndian.PutUint32(d[:], uint32(delta))
	return Pos(key, v, d[:])
}

// Mask implements the masking PRF g(k_j, j || pos), expanded to size bytes
// via counter mode over HMAC.
func Mask(key PRFKey, table int, pos uint64, size int) []byte {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(table))
	binary.BigEndian.PutUint64(hdr[8:], pos)
	return expand(key, labelMask, hdr[:], size)
}

// StreamG implements the PRF G(·) of the dynamic scheme: it expands the
// per-bucket random value r into a size-byte mask.
func StreamG(key PRFKey, r []byte, size int) []byte {
	return expand(key, labelG, r, size)
}

// expand produces size pseudo-random bytes as
// HMAC(key, label||ctr||seed) blocks. The output is allocated exactly at
// size — no retained spare block capacity.
func expand(key PRFKey, label byte, seed []byte, size int) []byte {
	out := make([]byte, size)
	p := ForKey(key)
	s := prfScratchPool.Get().(*prfScratch)
	p.expandWith(s, out, label, seed)
	prfScratchPool.Put(s)
	return out
}

// SubKey derives a fresh PRF key from key and a context string, used to
// re-salt LSH parameters on rehash.
func SubKey(key PRFKey, context string) PRFKey {
	return PRFKey(prf(key, labelSub, []byte(context)))
}

// XOR sets dst = a ^ b and returns dst. All three must have equal length;
// dst may alias a or b (exact overlap only). It works in 8-byte words with
// a byte tail; differential fuzzing against the byte-wise reference lives
// in fuzz_test.go.
func XOR(dst, a, b []byte) []byte {
	n := len(dst)
	a, b = a[:n], b[:n]
	i := 0
	for ; n-i >= 8; i += 8 {
		// Fixed-endian 8-byte loads/stores compile to single moves and are
		// endianness-agnostic under XOR.
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
	return dst
}

// RandBytes returns n cryptographically random bytes.
func RandBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		return nil, fmt.Errorf("crypt: rand: %w", err)
	}
	return b, nil
}

// encState is the memoized per-EncKey machinery of Enc/Dec: the expanded
// AES block cipher (safe for concurrent use) and the precomputed HMAC
// states of the derived MAC key, so neither the AES key schedule, the
// macKey derivation, nor the HMAC key schedule is repeated per call.
type encState struct {
	block cipher.Block
	mac   *PRF
}

// encCache memoizes encState per EncKey. Append-only like prfCache: a
// deployment holds two encryption keys (k_s, k_r).
var (
	encMu    sync.RWMutex
	encCache = make(map[EncKey]*encState)
)

// encStateFor returns the cached Enc/Dec state for key.
func encStateFor(key EncKey) (*encState, error) {
	encMu.RLock()
	st := encCache[key]
	encMu.RUnlock()
	if st != nil {
		return st, nil
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypt: new cipher: %w", err)
	}
	st = &encState{block: block, mac: NewPRF(PRFKey(macKey(key)))}
	encMu.Lock()
	if q, ok := encCache[key]; ok {
		st = q
	} else {
		encCache[key] = st
	}
	encMu.Unlock()
	return st, nil
}

// macKey derives the HMAC key for encrypt-then-MAC from the encryption
// key. Called once per EncKey; the result is memoized inside encStateFor.
func macKey(key EncKey) [32]byte {
	h := hmac.New(sha256.New, key[:])
	h.Write([]byte("pisd/mac"))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Enc encrypts plaintext under key with semantic security:
// AES-128-CTR with a random IV followed by an HMAC-SHA256 tag over IV and
// ciphertext. Layout: IV || C || TAG.
func Enc(key EncKey, plaintext []byte) ([]byte, error) {
	return EncFrom(key, plaintext, rand.Reader)
}

// EncFrom is Enc drawing the IV from the given randomness source instead
// of crypto/rand. The source must be cryptographically strong (a DRBG
// qualifies); it exists so bulk encryption paths (dynamic index builds)
// can amortize kernel entropy reads.
func EncFrom(key EncKey, plaintext []byte, random io.Reader) ([]byte, error) {
	st, err := encStateFor(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, ivSize+len(plaintext)+MACSize)
	iv := out[:ivSize]
	if _, err := io.ReadFull(random, iv); err != nil {
		return nil, fmt.Errorf("crypt: iv: %w", err)
	}
	cipher.NewCTR(st.block, iv).XORKeyStream(out[ivSize:ivSize+len(plaintext)], plaintext)
	st.mac.tagTo(out[ivSize+len(plaintext):], out[:ivSize+len(plaintext)])
	return out, nil
}

// Tag returns the encrypt-then-MAC tag that ends a ciphertext produced by
// Enc. It authenticates IV‖C under the key-derived MAC key, so two
// ciphertexts of one key that verify and carry equal tags are the same
// ciphertext. ok is false when ct is too short to carry a tag.
func Tag(ct []byte) (tag [MACSize]byte, ok bool) {
	if len(ct) < Overhead {
		return tag, false
	}
	copy(tag[:], ct[len(ct)-MACSize:])
	return tag, true
}

// Dec decrypts a ciphertext produced by Enc, verifying its tag first.
func Dec(key EncKey, ciphertext []byte) ([]byte, error) {
	return decInto(nil, key, ciphertext)
}

// decInto is Dec writing the plaintext into buf's storage when it has the
// capacity (a fresh allocation otherwise); the result aliases buf.
func decInto(buf []byte, key EncKey, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < Overhead {
		return nil, ErrCiphertextTooShort
	}
	st, err := encStateFor(key)
	if err != nil {
		return nil, err
	}
	body := ciphertext[:len(ciphertext)-MACSize]
	tag := ciphertext[len(ciphertext)-MACSize:]
	s := prfScratchPool.Get().(*prfScratch)
	ok := subtle.ConstantTimeCompare(st.mac.tagOf(s, body), tag) == 1
	prfScratchPool.Put(s)
	if !ok {
		mDecAuthFail.Inc()
		return nil, ErrAuthentication
	}
	n := len(body) - ivSize
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	plaintext := buf[:n]
	cipher.NewCTR(st.block, body[:ivSize]).XORKeyStream(plaintext, body[ivSize:])
	return plaintext, nil
}

// EncodeUint64 writes v big-endian into a fresh 8-byte slice.
func EncodeUint64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// DecodeUint64 reads a big-endian uint64 from b, which must be >= 8 bytes.
func DecodeUint64(b []byte) uint64 {
	return binary.BigEndian.Uint64(b[:8])
}

// Key-set serialization: the front end must persist K across restarts —
// the index and every ciphertext at the cloud are useless without it.
// Layout: magic, table count, then raw key bytes. Treat the encoding as
// secret material; it contains every key.

const keySetMagic = 0x504B4559 // "PKEY"

// MarshalBinary encodes the full key set.
func (k *KeySet) MarshalBinary() ([]byte, error) {
	if len(k.Table) == 0 {
		return nil, fmt.Errorf("crypt: cannot encode empty key set")
	}
	out := make([]byte, 0, 8+len(k.Table)*PRFKeySize+2*EncKeySize+PRFKeySize)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], keySetMagic)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(k.Table)))
	out = append(out, hdr[:]...)
	for _, tk := range k.Table {
		out = append(out, tk[:]...)
	}
	out = append(out, k.KS[:]...)
	out = append(out, k.KR[:]...)
	out = append(out, k.KG[:]...)
	return out, nil
}

// UnmarshalBinary decodes a key set produced by MarshalBinary.
func (k *KeySet) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("crypt: key set encoding too short")
	}
	if binary.BigEndian.Uint32(data) != keySetMagic {
		return fmt.Errorf("crypt: bad key set magic")
	}
	l := int(binary.BigEndian.Uint32(data[4:]))
	if l < 1 || l > 1<<16 {
		return fmt.Errorf("crypt: implausible table count %d", l)
	}
	want := 8 + l*PRFKeySize + 2*EncKeySize + PRFKeySize
	if len(data) != want {
		return fmt.Errorf("crypt: key set encoding %d bytes, want %d", len(data), want)
	}
	k.Table = make([]PRFKey, l)
	off := 8
	for j := range k.Table {
		copy(k.Table[j][:], data[off:])
		off += PRFKeySize
	}
	copy(k.KS[:], data[off:])
	off += EncKeySize
	copy(k.KR[:], data[off:])
	off += EncKeySize
	copy(k.KG[:], data[off:])
	return nil
}
