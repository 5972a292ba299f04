package bow

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Vocabulary serialization: the front end trains Δ once and pre-shares it
// with every user client (Sec. III-A, "pre-trained and shared by SF").
// The format is a fixed binary layout: magic, word count, dimensionality,
// then row-major IEEE-754 entries — the same byte count the paper's
// "vocabulary storage" overhead row measures.

const vocabMagic = 0x50564F43 // "PVOC"

// MarshalBinary encodes the vocabulary.
func (v *Vocabulary) MarshalBinary() ([]byte, error) {
	if len(v.Words) == 0 {
		return nil, fmt.Errorf("bow: cannot encode empty vocabulary")
	}
	dim := len(v.Words[0])
	out := make([]byte, 0, 12+8*len(v.Words)*dim)
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], vocabMagic)
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(v.Words)))
	binary.BigEndian.PutUint32(hdr[8:], uint32(dim))
	out = append(out, hdr[:]...)
	var buf [8]byte
	for k, w := range v.Words {
		if len(w) != dim {
			return nil, fmt.Errorf("bow: word %d has dim %d, want %d", k, len(w), dim)
		}
		for _, x := range w {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(x))
			out = append(out, buf[:]...)
		}
	}
	return out, nil
}

// UnmarshalBinary decodes a vocabulary produced by MarshalBinary.
func (v *Vocabulary) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("bow: vocabulary encoding too short")
	}
	if binary.BigEndian.Uint32(data) != vocabMagic {
		return fmt.Errorf("bow: bad vocabulary magic")
	}
	words := int(binary.BigEndian.Uint32(data[4:]))
	dim := int(binary.BigEndian.Uint32(data[8:]))
	if words < 1 || dim < 1 {
		return fmt.Errorf("bow: invalid vocabulary shape %dx%d", words, dim)
	}
	if len(data) != 12+8*words*dim {
		return fmt.Errorf("bow: vocabulary body %d bytes, want %d", len(data)-12, 8*words*dim)
	}
	v.Words = make([][]float64, words)
	off := 12
	for k := range v.Words {
		row := make([]float64, dim)
		for i := range row {
			row[i] = math.Float64frombits(binary.BigEndian.Uint64(data[off:]))
			off += 8
		}
		v.Words[k] = row
	}
	return nil
}
