package bow

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"pisd/internal/imaging"
	"pisd/internal/surf"
	"pisd/internal/vec"
)

// syntheticDescriptors draws descriptors from g well-separated Gaussian
// clusters in 64-D space.
func syntheticDescriptors(rng *rand.Rand, n, groups int) ([]surf.Descriptor, []int) {
	centers := make([][]float64, groups)
	for g := range centers {
		c := make([]float64, surf.DescriptorSize)
		for j := range c {
			c[j] = rng.NormFloat64() * 3
		}
		centers[g] = c
	}
	descs := make([]surf.Descriptor, n)
	labels := make([]int, n)
	for i := range descs {
		g := i % groups
		labels[i] = g
		for j := 0; j < surf.DescriptorSize; j++ {
			descs[i][j] = centers[g][j] + rng.NormFloat64()*0.1
		}
	}
	return descs, labels
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	descs, _ := syntheticDescriptors(rng, 20, 4)
	if _, err := Train(descs, TrainConfig{Words: 0, MaxIters: 5}); err == nil {
		t.Error("zero words accepted")
	}
	if _, err := Train(descs, TrainConfig{Words: 4, MaxIters: 0}); err == nil {
		t.Error("zero iters accepted")
	}
	if _, err := Train(descs, TrainConfig{Words: 50, MaxIters: 5}); err == nil {
		t.Error("more words than samples accepted")
	}
}

func TestTrainRecoversClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const groups = 6
	descs, labels := syntheticDescriptors(rng, 600, groups)
	voc, err := Train(descs, TrainConfig{Words: groups, MaxIters: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if voc.Size() != groups {
		t.Fatalf("vocabulary size %d", voc.Size())
	}
	// All members of one true cluster must quantize to the same word, and
	// different clusters to different words.
	wordOf := make(map[int]int)
	for i, d := range descs {
		w := voc.Quantize(d)
		if prev, ok := wordOf[labels[i]]; ok {
			if prev != w {
				t.Fatalf("cluster %d split across words %d and %d", labels[i], prev, w)
			}
		} else {
			wordOf[labels[i]] = w
		}
	}
	seen := map[int]bool{}
	for _, w := range wordOf {
		if seen[w] {
			t.Fatal("two clusters merged into one word")
		}
		seen[w] = true
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	descs, _ := syntheticDescriptors(rng, 200, 4)
	cfg := TrainConfig{Words: 4, MaxIters: 10, Seed: 9}
	a, err := Train(descs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(descs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Words {
		for j := range a.Words[k] {
			if a.Words[k][j] != b.Words[k][j] {
				t.Fatal("training not deterministic in seed")
			}
		}
	}
}

func TestBoWHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	descs, _ := syntheticDescriptors(rng, 100, 4)
	voc, err := Train(descs, TrainConfig{Words: 4, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist := voc.BoW(descs)
	var total float64
	for _, v := range hist {
		total += v
	}
	if total != 100 {
		t.Errorf("histogram mass %v, want 100", total)
	}
}

func TestProfileNormalizedAndAggregated(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	descs, _ := syntheticDescriptors(rng, 200, 4)
	voc, err := Train(descs[:100], TrainConfig{Words: 4, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := voc.Profile(nil); err == nil {
		t.Error("empty image set accepted")
	}
	profile, err := voc.Profile([][]surf.Descriptor{descs[:50], descs[50:120]})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vec.Norm(profile)-1) > 1e-9 {
		t.Errorf("profile norm %v", vec.Norm(profile))
	}
	for _, v := range profile {
		if v < 0 {
			t.Fatal("profile has negative entry")
		}
	}
}

func TestVocabularySizeBytes(t *testing.T) {
	voc := &Vocabulary{Words: [][]float64{make([]float64, 64), make([]float64, 64)}}
	if got := voc.SizeBytes(); got != 2*64*8 {
		t.Errorf("SizeBytes = %d", got)
	}
}

// End-to-end locality: profiles built from same-topic images are closer
// than profiles from different-topic images. This is the load-bearing
// property of the whole pipeline (images → SURF → BoW → profile).
func TestPipelineTopicLocality(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	opts := surf.DefaultOptions()
	extract := func(topic imaging.Topic, seed int64) []surf.Descriptor {
		t.Helper()
		im, err := imaging.Render(topic, seed, 128, 128)
		if err != nil {
			t.Fatal(err)
		}
		descs, err := surf.Extract(im, opts)
		if err != nil {
			t.Fatal(err)
		}
		return descs
	}
	// Train a small vocabulary on a mixed sample.
	var sample []surf.Descriptor
	for _, topic := range []imaging.Topic{imaging.TopicFlower, imaging.TopicBuilding, imaging.TopicWater, imaging.TopicDog} {
		for s := int64(0); s < 3; s++ {
			sample = append(sample, extract(topic, 1000+s)...)
		}
	}
	voc, err := Train(sample, TrainConfig{Words: 48, MaxIters: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	profileOf := func(topic imaging.Topic, base int64) []float64 {
		var imgs [][]surf.Descriptor
		for s := int64(0); s < 3; s++ {
			imgs = append(imgs, extract(topic, base+s))
		}
		p, err := voc.Profile(imgs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	buildingA := profileOf(imaging.TopicBuilding, 2000)
	buildingB := profileOf(imaging.TopicBuilding, 3000)
	flowerA := profileOf(imaging.TopicFlower, 2000)
	within := vec.Distance(buildingA, buildingB)
	across := vec.Distance(buildingA, flowerA)
	if within >= across {
		t.Errorf("pipeline locality violated: within-topic %.4f >= cross-topic %.4f", within, across)
	}
}

func BenchmarkQuantize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	descs, _ := syntheticDescriptors(rng, 1000, 8)
	voc, err := Train(descs, TrainConfig{Words: 200, MaxIters: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		voc.Quantize(descs[i%len(descs)])
	}
}

func TestVocabularyCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	descs, _ := syntheticDescriptors(rng, 100, 4)
	voc, err := Train(descs, TrainConfig{Words: 4, MaxIters: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := voc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Vocabulary
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if decoded.Size() != voc.Size() {
		t.Fatalf("size %d vs %d", decoded.Size(), voc.Size())
	}
	for k := range voc.Words {
		for i := range voc.Words[k] {
			if decoded.Words[k][i] != voc.Words[k][i] {
				t.Fatal("word entries changed in codec")
			}
		}
	}
	// Both vocabularies quantize identically.
	for i := range descs[:20] {
		if voc.Quantize(descs[i]) != decoded.Quantize(descs[i]) {
			t.Fatal("decoded vocabulary quantizes differently")
		}
	}
}

func TestVocabularyCodecRejectsMalformed(t *testing.T) {
	var v Vocabulary
	if err := v.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Error("short blob accepted")
	}
	empty := &Vocabulary{}
	if _, err := empty.MarshalBinary(); err == nil {
		t.Error("empty vocabulary encoded")
	}
	good := &Vocabulary{Words: [][]float64{{1, 2}, {3, 4}}}
	blob, err := good.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob[0] ^= 1
	if err := v.UnmarshalBinary(blob); err == nil {
		t.Error("bad magic accepted")
	}
	blob[0] ^= 1
	if err := v.UnmarshalBinary(blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob accepted")
	}
	ragged := &Vocabulary{Words: [][]float64{{1, 2}, {3}}}
	if _, err := ragged.MarshalBinary(); err == nil {
		t.Error("ragged vocabulary encoded")
	}
}

// TestVocabularyCodecRejectsWrappingShape feeds a bare 12-byte header of
// 2^31 × 2^31 words, whose body size 8·words·dim wraps a 64-bit integer to
// 0: the decoder must refuse it before allocating a row.
func TestVocabularyCodecRejectsWrappingShape(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, vocabMagic)
	hdr = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(hdr, 1<<31), 1<<31)
	var v Vocabulary
	if err := v.UnmarshalBinary(hdr); err == nil {
		t.Fatal("12-byte encoding of a 2^31 x 2^31 vocabulary accepted")
	}
	if v.Words != nil {
		t.Fatalf("refused encoding left %d rows behind", len(v.Words))
	}
}

func TestMiniBatchTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const groups = 6
	descs, labels := syntheticDescriptors(rng, 3000, groups)
	voc, err := Train(descs, TrainConfig{Words: groups, MaxIters: 60, Seed: 2, BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Mini-batch on well-separated clusters must still recover them:
	// members of one true cluster quantize to one word.
	wordOf := make(map[int]int)
	mismatches := 0
	for i, d := range descs {
		w := voc.Quantize(d)
		if prev, ok := wordOf[labels[i]]; ok && prev != w {
			mismatches++
		} else {
			wordOf[labels[i]] = w
		}
	}
	if frac := float64(mismatches) / float64(len(descs)); frac > 0.02 {
		t.Errorf("mini-batch split clusters: %.3f mismatch rate", frac)
	}
	if _, err := Train(descs, TrainConfig{Words: 4, MaxIters: 5, BatchSize: -1}); err == nil {
		t.Error("negative batch size accepted")
	}
}

func TestMiniBatchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	descs, _ := syntheticDescriptors(rng, 500, 4)
	cfg := TrainConfig{Words: 4, MaxIters: 20, Seed: 5, BatchSize: 64}
	a, err := Train(descs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(descs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Words {
		for j := range a.Words[k] {
			if a.Words[k][j] != b.Words[k][j] {
				t.Fatal("mini-batch training not deterministic in seed")
			}
		}
	}
}
