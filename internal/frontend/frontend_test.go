package frontend

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/dataset"
	"pisd/internal/fof"
	"pisd/internal/lsh"
	"pisd/internal/shard"
	"pisd/internal/subs"
	"pisd/internal/vec"
)

func testConfig() Config {
	return Config{
		LSH:        lsh.Params{Dim: 100, Tables: 8, Atoms: 2, Width: 0.8, Seed: 1},
		LoadFactor: 0.8,
		ProbeRange: 6,
		MaxLoop:    300,
		MaxRehash:  3,
		Seed:       1,
		KeySeed:    "frontend-test",
	}
}

func testPopulation(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.Config{
		Users: n, Dim: 100, Topics: 10, TopicsPerUser: 2,
		ActiveWords: 20, Noise: 0.02, Seed: 7,
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func uploadsFrom(ds *dataset.Dataset, f *Frontend) []Upload {
	ups := make([]Upload, len(ds.Profiles))
	for i, p := range ds.Profiles {
		ups[i] = Upload{ID: uint64(i + 1), Profile: p, Meta: f.ComputeMeta(p)}
	}
	return ups
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad lsh", func(c *Config) { c.LSH.Dim = 0 }},
		{"zero load", func(c *Config) { c.LoadFactor = 0 }},
		{"load above one", func(c *Config) { c.LoadFactor = 1.5 }},
		{"negative probes", func(c *Config) { c.ProbeRange = -1 }},
		{"zero maxloop", func(c *Config) { c.MaxLoop = 0 }},
		{"negative rehash", func(c *Config) { c.MaxRehash = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := testConfig()
			tt.mut(&c)
			if _, err := New(c); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if err := DefaultConfig(1000).Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestEndToEndDiscovery(t *testing.T) {
	const n = 400
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	uploads := uploadsFrom(ds, f)

	idx, encProfiles, err := f.BuildIndex(uploads)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	if cs.NumProfiles() != n {
		t.Fatalf("cloud holds %d profiles", cs.NumProfiles())
	}

	// Discovery for an indexed user must surface the user themself at
	// distance zero when not excluded.
	target := ds.Profiles[3]
	matches, err := f.Discover(cs, target, 5, 0)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if matches[0].ID != 4 || matches[0].Distance > 1e-9 {
		t.Errorf("self match missing: got %+v", matches[0])
	}
	// With exclusion, the self id must vanish.
	matches, err = f.Discover(cs, target, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.ID == 4 {
			t.Error("excluded id present")
		}
	}
	// Results must be distance-sorted.
	for i := 1; i < len(matches); i++ {
		if matches[i].Distance < matches[i-1].Distance {
			t.Fatal("matches not sorted")
		}
	}
}

func TestDiscoveryFindsTopicPeers(t *testing.T) {
	const n = 500
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	// Fresh query users drawn from the same topic model: their top
	// matches should share topics clearly more often than chance.
	queries, queryTopics := ds.Queries(20, 99)
	sharedTop, totalTop := 0, 0
	for qi, q := range queries {
		matches, err := f.Discover(cs, q, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if dataset.SharedTopics(queryTopics[qi], ds.UserTopics[m.ID-1]) > 0 {
				sharedTop++
			}
			totalTop++
		}
	}
	if totalTop == 0 {
		t.Fatal("no discovery results at all")
	}
	frac := float64(sharedTop) / float64(totalTop)
	// Chance level: with 10 topics and 2 per user, random pairs share a
	// topic with prob ~0.38. Require clearly better.
	if frac < 0.6 {
		t.Errorf("topic consistency %.2f below 0.6 (results not better than chance)", frac)
	}
}

func TestTrapdoorRequiresBuild(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Trapdoor(make([]float64, 100)); err == nil {
		t.Error("trapdoor before build accepted")
	}
	if _, err := f.IndexParams(); err == nil {
		t.Error("IndexParams before build accepted")
	}
}

func TestProfileEncryptionRoundTrip(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := vec.Normalize([]float64{1, 2, 3})
	ct, err := f.EncryptProfile(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.DecryptProfile(ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatal("profile round trip mismatch")
		}
	}
}

func TestDiscoverFoFBoostsSocialties(t *testing.T) {
	const n = 300
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	target := uint64(10)
	plain, err := f.Discover(cs, ds.Profiles[9], 10, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) < 2 {
		t.Skip("not enough candidates for FoF test")
	}
	// Make the last-ranked candidate a friend-of-friend of the target.
	g := fof.NewGraph()
	bridge := uint64(299)
	g.AddFriendship(target, bridge)
	g.AddFriendship(bridge, plain[len(plain)-1].ID)

	wide, err := f.Discover(cs, ds.Profiles[9], 2*len(plain), target)
	if err != nil {
		t.Fatal(err)
	}
	boosted := BoostFoF(g, target, wide, len(plain))
	if len(boosted) == 0 {
		t.Fatal("no boosted results")
	}
	if boosted[0].ID != plain[len(plain)-1].ID {
		t.Errorf("FoF candidate not promoted: first is %d, want %d",
			boosted[0].ID, plain[len(plain)-1].ID)
	}

	// The stage owns no cloud call, so it composes with any route: the
	// cached, coalesced serving path feeds it the same matches.
	serving, err := f.NewServing(SingleFanout{S: cs}, DefaultServingConfig())
	if err != nil {
		t.Fatal(err)
	}
	served, _, err := serving.Discover(context.Background(), ds.Profiles[9], 2*len(plain), target)
	if err != nil {
		t.Fatal(err)
	}
	if got := BoostFoF(g, target, served, len(plain)); !reflect.DeepEqual(got, boosted) {
		t.Errorf("FoF over the serving path: %v, want %v", got, boosted)
	}
}

func TestDynamicFlow(t *testing.T) {
	const n = 300
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	uploads := uploadsFrom(ds, f)
	idx, client, encProfiles, err := f.BuildDynamicIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetDynIndex(idx)
	cs.PutProfiles(encProfiles)
	dyn := uncachedDyn(t, f, []DynShard{{Client: client}}, []DynNode{shard.NewLocal(cs)})

	target := ds.Profiles[7]
	matches, _, err := dyn.Search(target, 5, 0)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(matches) == 0 || matches[0].ID != 8 {
		t.Fatalf("dynamic search did not find self: %+v", matches)
	}

	// Update user 8's profile: delete, re-insert with new interests.
	meta8 := f.ComputeMeta(ds.Profiles[7])
	if err := client.Delete(cs, 8, meta8); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	cs.DeleteProfile(8)
	newProfile := ds.Profiles[100] // adopt another user's interests
	if err := client.Insert(cs, 8, f.ComputeMeta(newProfile)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	ct, err := f.EncryptProfile(newProfile)
	if err != nil {
		t.Fatal(err)
	}
	cs.PutProfile(8, ct)

	matches, _, err = dyn.Search(newProfile, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.ID == 8 {
			found = true
		}
	}
	if !found {
		t.Error("updated user not discoverable under new profile")
	}
}

func TestBuildIndexDimMismatch(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = f.BuildIndex([]Upload{{ID: 1, Profile: make([]float64, 3)}})
	if err == nil {
		t.Error("dim mismatch accepted")
	}
}

// TestWrongDimensionRejected drives a profile one entry short through every
// SF entry point that hashes it. Each must refuse with errProfileDim before
// anything reaches the cloud: the LSH projections would otherwise truncate
// it silently, and a stored ciphertext of another length would make |S*|
// depend on the profile.
func TestWrongDimensionRejected(t *testing.T) {
	st := newStaticDeployment(t, 60, 1)
	dyn := newDynDeployment(t, 60, 2)
	serv := dyn.serving(t)
	serv.AttachSubscriptions(func(subs.Notification) {})
	short := st.profiles[0][:len(st.profiles[0])-1]
	node := poolNode{pool: st.pool}
	rows := []struct {
		name string
		run  func() error
	}{
		{"BuildIndex with metadata", func() error {
			ups := uploadsFrom(testPopulation(t, 60), st.f)
			ups[3].Profile = ups[3].Profile[1:]
			_, _, err := st.f.BuildIndex(ups)
			return err
		}},
		{"Trapdoor", func() error { _, err := st.f.Trapdoor(short); return err }},
		{"DiscoverMultiProbe", func() error { _, err := st.f.DiscoverMultiProbe(node, short, 5, 0, 2); return err }},
		{"DiscoverWithDecoys", func() error {
			_, err := st.f.DiscoverWithDecoys(node, [][]float64{st.profiles[1], short}, 5, 2, rand.New(rand.NewSource(1)))
			return err
		}},
		{"DynServing.Search", func() error { _, _, err := serv.Search(short, 5, 0); return err }},
		{"DynServing.Insert", func() error { return serv.Insert(1000, short) }},
		{"DynServing.Delete", func() error { return serv.Delete(1, short) }},
		{"DynServing.Subscribe", func() error { _, err := serv.Subscribe(1, short, 5); return err }},
	}
	for _, r := range rows {
		if err := r.run(); !errors.Is(err, errProfileDim) {
			t.Errorf("%s: err = %v, want errProfileDim", r.name, err)
		}
	}
	if got := totalFetches(dyn.counters); got != 0 {
		t.Errorf("dynamic entry points fetched %d buckets before refusing", got)
	}
}

func TestCloudWithoutIndex(t *testing.T) {
	cs := cloud.New()
	if _, _, err := cs.SecRec(&core.Trapdoor{}); err == nil {
		t.Error("SecRec without index accepted")
	}
	if _, err := cs.FetchBuckets(nil); err == nil {
		t.Error("FetchBuckets without index accepted")
	}
	if err := cs.StoreBuckets(nil, nil); err == nil {
		t.Error("StoreBuckets without index accepted")
	}
}

func TestCloudImagesRoundTrip(t *testing.T) {
	cs := cloud.New()
	cs.StoreImages(5, []byte("img-a"), []byte("img-b"))
	got := cs.Images(5)
	if len(got) != 2 || string(got[0]) != "img-a" || string(got[1]) != "img-b" {
		t.Errorf("Images = %q", got)
	}
	// Returned slices are copies.
	got[0][0] = 'X'
	if string(cs.Images(5)[0]) != "img-a" {
		t.Error("Images aliases internal storage")
	}
	if got := cs.Images(99); len(got) != 0 {
		t.Errorf("unknown user images = %v", got)
	}
}

func TestCloudFetchProfilesUnknown(t *testing.T) {
	cs := cloud.New()
	cs.PutProfile(1, []byte("ct"))
	// The cloud's read tolerates the gap; the strict read the search path
	// uses names it.
	if got, err := cs.FetchProfiles([]uint64{1, 2}); err != nil || len(got) != 2 || len(got[1]) != 0 {
		t.Errorf("FetchProfiles with an unknown id = %q, %v; want an empty slot", got, err)
	}
	if _, err := fetchAll(cs, []uint64{1, 2}); !errors.Is(err, ErrUnknownProfile) {
		t.Errorf("strict fetch with an unknown id: err = %v, want ErrUnknownProfile", err)
	}
	got, err := cs.FetchProfiles([]uint64{1})
	if err != nil || string(got[0]) != "ct" {
		t.Errorf("FetchProfiles = %q, %v", got, err)
	}
}

func TestDiscoverBatchWithDecoys(t *testing.T) {
	const n = 300
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	targets := [][]float64{ds.Profiles[0], ds.Profiles[1], ds.Profiles[2]}
	rng := rand.New(rand.NewSource(5))
	results, err := f.DiscoverWithDecoys(cs, targets, 5, 7, rng)
	if err != nil {
		t.Fatalf("DiscoverWithDecoys: %v", err)
	}
	if len(results) != len(targets) {
		t.Fatalf("results for %d targets", len(results))
	}
	// Batched results must equal unbatched discovery per target.
	for i, target := range targets {
		plain, err := f.Discover(cs, target, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(results[i]) {
			t.Fatalf("target %d: batched %d results vs plain %d", i, len(results[i]), len(plain))
		}
		for r := range plain {
			if plain[r].ID != results[i][r].ID {
				t.Fatalf("target %d rank %d: batched %d vs plain %d", i, r, results[i][r].ID, plain[r].ID)
			}
		}
	}
	// Validation paths.
	if _, err := f.DiscoverWithDecoys(cs, nil, 5, 0, rng); err == nil {
		t.Error("empty targets accepted")
	}
	if _, err := f.DiscoverWithDecoys(cs, targets, 5, -1, rng); err == nil {
		t.Error("negative decoys accepted")
	}
	// Nil rng draws fresh decoys every round: a cloud intersecting two
	// rounds over the same targets must not be able to strip the decoys.
	isReal := make(map[CacheKey]bool)
	for _, target := range targets {
		td, err := f.Trapdoor(target)
		if err != nil {
			t.Fatal(err)
		}
		isReal[trapdoorKey(td)] = true
	}
	rec := &recordingServer{inner: cs}
	var rounds [2]map[CacheKey]bool // decoy trapdoors the cloud saw per round
	for r := range rounds {
		rec.seen = nil
		results, err := f.DiscoverWithDecoys(rec, targets, 5, 6, nil)
		if err != nil {
			t.Fatalf("nil rng round %d: %v", r, err)
		}
		for i, target := range targets {
			plain, err := f.Discover(cs, target, 5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := EqualMatches(results[i], plain); err != nil {
				t.Fatalf("nil rng round %d target %d: %v", r, i, err)
			}
		}
		rounds[r] = make(map[CacheKey]bool)
		for _, key := range rec.seen {
			if !isReal[key] {
				rounds[r][key] = true
			}
		}
		if len(rounds[r]) != 6 {
			t.Fatalf("nil rng round %d: cloud saw %d decoy trapdoors, want 6", r, len(rounds[r]))
		}
	}
	for key := range rounds[0] {
		if rounds[1][key] {
			t.Fatal("nil rng repeated a decoy trapdoor across rounds")
		}
	}
}

// recordingServer records the search pattern (trapdoor digest) of every
// trapdoor it forwards.
type recordingServer struct {
	inner BatchDiscoveryServer
	seen  []CacheKey
}

func (r *recordingServer) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	for _, t := range ts {
		r.seen = append(r.seen, trapdoorKey(t))
	}
	return r.inner.SecRecBatch(ctx, ts)
}

func TestDiscoverMultiProbeImprovesRecall(t *testing.T) {
	ds := testPopulation(t, 500)
	queries, _ := ds.Queries(15, 42)
	// The second population holds every profile three times over: tied
	// distances everywhere, so the k-cut regularly splits a run of equal
	// candidates and the ranking is only stable if candidates reach the
	// top-k in a deterministic order.
	var tripled [][]float64
	for _, p := range ds.Profiles[:120] {
		tripled = append(tripled, p, p, p)
	}
	for _, pop := range []struct {
		name     string
		profiles [][]float64
		queries  [][]float64
		k        int
	}{
		{"topics", ds.Profiles, queries, 10},
		{"duplicated", tripled, ds.Profiles[:15], 4},
	} {
		t.Run(pop.name, func(t *testing.T) {
			f, err := New(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			ups := make([]Upload, len(pop.profiles))
			for i, p := range pop.profiles {
				ups[i] = Upload{ID: uint64(i + 1), Profile: p}
			}
			idx, encProfiles, err := f.BuildIndex(ups)
			if err != nil {
				t.Fatal(err)
			}
			cs := cloud.New()
			cs.SetIndex(idx)
			cs.PutProfiles(encProfiles)

			var plainSum, mpSum float64
			for _, q := range pop.queries {
				plain, err := f.Discover(cs, q, pop.k, 0)
				if err != nil {
					t.Fatal(err)
				}
				mp, err := f.DiscoverMultiProbe(cs, q, pop.k, 0, 8)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range plain {
					plainSum += m.Distance
				}
				for _, m := range mp {
					mpSum += m.Distance
				}
				if len(mp) < len(plain) {
					t.Fatalf("multi-probe returned fewer results (%d) than plain (%d)", len(mp), len(plain))
				}
				// No variants is exactly Discover, ties included.
				mp0, err := f.DiscoverMultiProbe(cs, q, pop.k, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := EqualMatches(mp0, plain); err != nil {
					t.Fatalf("variants=0 differs from Discover: %v", err)
				}
				// The same query ranks the same way every time.
				for rep := 0; rep < 20; rep++ {
					again, err := f.DiscoverMultiProbe(cs, q, pop.k, 0, 8)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(again, mp) {
						t.Fatalf("repeat %d of the same multi-probe query ranked differently:\n got %v\nwant %v", rep, again, mp)
					}
				}
			}
			// Multi-probe sees a superset of candidates, so its summed
			// top-k distances cannot be worse.
			if mpSum > plainSum+1e-9 {
				t.Errorf("multi-probe distances %.4f worse than plain %.4f", mpSum, plainSum)
			}
			if _, err := f.DiscoverMultiProbe(cs, pop.queries[0], 5, 0, -1); err == nil {
				t.Error("negative variants accepted")
			}
		})
	}
}

func TestCompactProfilesFlow(t *testing.T) {
	cfg := testConfig()
	cfg.CompactProfiles = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, 200)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	// Compact ciphertexts: 4 + 4*dim + overhead.
	for _, ct := range encProfiles {
		if len(ct) >= 4+8*100 {
			t.Fatalf("profile ciphertext %d bytes, not compact", len(ct))
		}
		break
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	matches, err := f.Discover(cs, ds.Profiles[0], 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].ID != 1 {
		t.Fatalf("compact discovery results: %+v", matches)
	}
	if matches[0].Distance > 1e-6 {
		t.Errorf("self distance %v under compact encoding", matches[0].Distance)
	}
}

func TestKeyPersistenceAcrossRestart(t *testing.T) {
	// Session 1: build and outsource.
	f1, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, 200)
	idx, encProfiles, err := f1.BuildIndex(uploadsFrom(ds, f1))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	keyBlob, err := f1.ExportKeys()
	if err != nil {
		t.Fatal(err)
	}
	params, err := f1.IndexParams()
	if err != nil {
		t.Fatal(err)
	}

	// Session 2: a fresh front end restored from the key blob serves the
	// same cloud state.
	f2, err := NewWithKeys(testConfig(), keyBlob)
	if err != nil {
		t.Fatalf("NewWithKeys: %v", err)
	}
	if err := f2.RestoreIndexParams(params); err != nil {
		t.Fatal(err)
	}
	matches, err := f2.Discover(cs, ds.Profiles[3], 5, 0)
	if err != nil {
		t.Fatalf("Discover after restart: %v", err)
	}
	if len(matches) == 0 || matches[0].ID != 4 || matches[0].Distance > 1e-9 {
		t.Fatalf("restored front end results: %+v", matches)
	}

	// Mismatched table count is rejected.
	badCfg := testConfig()
	badCfg.LSH.Tables = 3
	if _, err := NewWithKeys(badCfg, keyBlob); err == nil {
		t.Error("table-count mismatch accepted")
	}
	if err := f2.RestoreIndexParams(core.Params{Tables: 2, Capacity: 10, ProbeRange: 1, MaxLoop: 1}); err == nil {
		t.Error("mismatched index params accepted")
	}
}
