package crypt

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// compactFlag marks a profile encoded with float32 entries. Profile
// vectors are unit-norm histograms; single precision loses nothing the
// ranking can observe and halves S* to the paper's ~4 KB per profile.
const compactFlag = 1 << 31

// EncodeProfile serializes an image profile vector to a fixed-width binary
// form: a uint32 dimension header followed by IEEE-754 big-endian entries.
// This is the plaintext fed to Enc(ks, ·) to produce S*.
func EncodeProfile(s []float64) []byte {
	out := make([]byte, 4+8*len(s))
	binary.BigEndian.PutUint32(out, uint32(len(s)))
	for i, x := range s {
		binary.BigEndian.PutUint64(out[4+8*i:], math.Float64bits(x))
	}
	return out
}

// EncodeProfileCompact serializes a profile with float32 entries: the
// header carries the dimension with the compact flag set.
func EncodeProfileCompact(s []float64) []byte {
	out := make([]byte, 4+4*len(s))
	binary.BigEndian.PutUint32(out, uint32(len(s))|compactFlag)
	for i, x := range s {
		binary.BigEndian.PutUint32(out[4+4*i:], math.Float32bits(float32(x)))
	}
	return out
}

// DecodeProfile parses a profile encoded by EncodeProfile or
// EncodeProfileCompact (detected by the header flag).
func DecodeProfile(b []byte) ([]float64, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("crypt: profile encoding too short (%d bytes)", len(b))
	}
	hdr := binary.BigEndian.Uint32(b)
	if hdr&compactFlag != 0 {
		dim := int(hdr &^ compactFlag)
		if len(b) != 4+4*dim {
			return nil, fmt.Errorf("crypt: compact profile length %d does not match dim %d", len(b), dim)
		}
		s := make([]float64, dim)
		for i := range s {
			s[i] = float64(math.Float32frombits(binary.BigEndian.Uint32(b[4+4*i:])))
		}
		return s, nil
	}
	dim := int(hdr)
	if len(b) != 4+8*dim {
		return nil, fmt.Errorf("crypt: profile encoding length %d does not match dim %d", len(b), dim)
	}
	s := make([]float64, dim)
	for i := range s {
		s[i] = math.Float64frombits(binary.BigEndian.Uint64(b[4+8*i:]))
	}
	return s, nil
}

// EncProfile encrypts an image profile vector: S* = Enc(ks, encode(S)).
func EncProfile(key EncKey, s []float64) ([]byte, error) {
	return Enc(key, EncodeProfile(s))
}

// EncProfileCompact encrypts the float32 encoding of the profile,
// producing the paper-sized ~4 KB ciphertext for 1000-dim profiles.
func EncProfileCompact(key EncKey, s []float64) ([]byte, error) {
	return Enc(key, EncodeProfileCompact(s))
}

// DecodedProfile returns what DecProfile returns for EncProfile's
// ciphertext of s, or EncProfileCompact's when compact: a copy of s, each
// entry rounded through float32 in the compact encoding.
func DecodedProfile(s []float64, compact bool) []float64 {
	v := slices.Clone(s)
	if compact {
		for i, x := range v {
			v[i] = float64(float32(x))
		}
	}
	return v
}

// plainScratchPool holds the plaintext staging buffers of DecProfile: the
// decrypted encoding is decoded and dropped within the call, so only the
// returned vector is allocated per profile.
var plainScratchPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// DecProfile decrypts and decodes a ciphertext produced by EncProfile.
func DecProfile(key EncKey, ct []byte) ([]float64, error) {
	buf := plainScratchPool.Get().(*[]byte)
	defer plainScratchPool.Put(buf)
	pt, err := decInto(*buf, key, ct)
	if err != nil {
		return nil, err
	}
	*buf = pt
	return DecodeProfile(pt)
}
