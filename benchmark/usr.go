package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pisd/internal/bow"
	"pisd/internal/frontend"
	"pisd/internal/imaging"
	"pisd/internal/surf"
)

// The Usr tier: what a user's client computes before anything reaches SF
// or CS — SURF descriptors of each preferred image, the Bag-of-Words
// profile over the shared vocabulary, the LSH metadata, and the encrypted
// profile. One thread, as on a phone.

// usrInputs are pre-rendered: rendering stands in for the photos a user
// already has and is not part of the upload cost.
type usrInputs struct {
	vocab  *bow.Vocabulary
	images [][]*imaging.Image // images[u] are user u's preferred photos
}

// genUsrInputs renders every user's images and draws the shared
// vocabulary: words descriptors sampled from a separate set of rendered
// images. A sampled vocabulary quantizes at the same cost as a trained one
// of the same size, and training is SF's one-off job, not the user's.
func genUsrInputs(sc scale, seed int64) (*usrInputs, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "usr", 0)))
	topics := imaging.AllTopics()
	render := func() (*imaging.Image, error) {
		return imaging.Render(topics[rng.Intn(len(topics))], rng.Int63(), sc.ImageSide, sc.ImageSide)
	}
	var sample []surf.Descriptor
	for tries := 0; len(sample) < sc.VocabWords; tries++ {
		if tries > 50*sc.VocabWords {
			return nil, fmt.Errorf("usr: rendered images yield too few descriptors for %d words", sc.VocabWords)
		}
		im, err := render()
		if err != nil {
			return nil, err
		}
		descs, err := surf.Extract(im, surf.DefaultOptions())
		if err != nil {
			return nil, err
		}
		sample = append(sample, descs...)
	}
	rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	in := &usrInputs{vocab: &bow.Vocabulary{Words: make([][]float64, sc.VocabWords)}}
	for w := range in.vocab.Words {
		in.vocab.Words[w] = append([]float64(nil), sample[w].Slice()...)
	}
	in.images = make([][]*imaging.Image, sc.UsrUsers)
	for u := range in.images {
		for i := 0; i < sc.UsrImages; i++ {
			im, err := render()
			if err != nil {
				return nil, err
			}
			in.images[u] = append(in.images[u], im)
		}
	}
	return in, nil
}

// usrStats is what the Usr-tier phase measured.
type usrStats struct {
	UploadMs    []float64 // wall per user upload
	ExtractMs   []float64 // per image
	ProfileMs   []float64 // per user: quantize + aggregate
	HashUs      []float64 // per user
	EncryptUs   []float64 // per user
	Descriptors int
	Images      int
	Failed      int
}

// runUsrPhase computes every user's upload against sf and checks that the
// encrypted profile decrypts back to the unit-norm profile. tr, when
// non-nil, receives one span per stage.
func runUsrPhase(sf *frontend.Frontend, in *usrInputs, tr *tracer) usrStats {
	var st usrStats
	opts := surf.DefaultOptions()
	for u, imgs := range in.images {
		op := tr.op()
		root := tr.begin(op, 0, "usr.upload")
		t0 := time.Now()
		descs := make([][]surf.Descriptor, 0, len(imgs))
		ok := true
		for _, im := range imgs {
			sp := tr.begin(op, root, "surf.extract")
			te := time.Now()
			d, err := surf.Extract(im, opts)
			st.ExtractMs = append(st.ExtractMs, ms(time.Since(te)))
			tr.end(sp)
			if err != nil {
				ok = false
				break
			}
			st.Descriptors += len(d)
			st.Images++
			if len(d) > 0 {
				descs = append(descs, d)
			}
		}
		var ct []byte
		var profile []float64
		if ok {
			sp := tr.begin(op, root, "bow.profile")
			tp := time.Now()
			var err error
			profile, err = in.vocab.Profile(descs)
			st.ProfileMs = append(st.ProfileMs, ms(time.Since(tp)))
			tr.end(sp)
			ok = err == nil
		}
		if ok {
			sp := tr.begin(op, root, "lsh.hash")
			th := time.Now()
			meta := sf.ComputeMeta(profile)
			st.HashUs = append(st.HashUs, 1e3*ms(time.Since(th)))
			tr.end(sp)
			ok = len(meta) > 0

			sp = tr.begin(op, root, "crypt.enc_profile")
			tc := time.Now()
			var err error
			ct, err = sf.EncryptProfile(profile)
			st.EncryptUs = append(st.EncryptUs, 1e3*ms(time.Since(tc)))
			tr.end(sp)
			ok = ok && err == nil
		}
		took := time.Since(t0)
		tr.end(root)
		if ok {
			ok = checkUpload(sf, profile, ct)
		}
		if !ok {
			st.Failed++
			fmt.Printf("usr: upload of user %d failed\n", u)
			continue
		}
		st.UploadMs = append(st.UploadMs, ms(took))
	}
	return st
}

// checkUpload verifies, outside the timing, that ct decrypts to profile
// and that the profile is the unit vector GenProf promises.
func checkUpload(sf *frontend.Frontend, profile []float64, ct []byte) bool {
	back, err := sf.DecryptProfile(ct)
	if err != nil || len(back) != len(profile) {
		return false
	}
	norm := 0.0
	for i, v := range profile {
		if back[i] != v {
			return false
		}
		norm += v * v
	}
	return math.Abs(norm-1) < 1e-9
}
