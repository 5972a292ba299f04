package bow

import (
	"encoding/binary"
	"fmt"
	"math"

	"pisd/internal/binfmt"
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
	out = be.AppendUint32(out, vocabMagic)
	out = be.AppendUint32(out, uint32(len(v.Words)))
	out = be.AppendUint32(out, uint32(dim))
	for k, w := range v.Words {
		if len(w) != dim {
			return nil, fmt.Errorf("bow: word %d has dim %d, want %d", k, len(w), dim)
		}
		for _, x := range w {
			out = be.AppendUint64(out, math.Float64bits(x))
		}
	}
	return out, nil
}

// UnmarshalBinary decodes a vocabulary produced by MarshalBinary.
func (v *Vocabulary) UnmarshalBinary(data []byte) error {
	r := binfmt.NewReader(data)
	if r.U32BE() != vocabMagic {
		return fmt.Errorf("bow: bad vocabulary magic or encoding too short")
	}
	words, dim := int(r.U32BE()), int(r.U32BE())
	if r.Bad() || words < 1 || dim < 1 {
		return fmt.Errorf("bow: invalid vocabulary shape %dx%d", words, dim)
	}
	if r.Within(uint64(words), 8*dim) != words || r.Len() != 8*words*dim {
		return fmt.Errorf("bow: vocabulary body of %d bytes does not hold %dx%d words", len(data)-12, words, dim)
	}
	v.Words = make([][]float64, words)
	for k := range v.Words {
		row := make([]float64, dim)
		for i := range row {
			row[i] = math.Float64frombits(r.U64BE())
		}
		v.Words[k] = row
	}
	return nil
}

var be = binary.BigEndian
