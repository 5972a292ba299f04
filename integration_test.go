package pisd_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"pisd"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/sharing"
)

// TestFullSystemOverTCP drives the complete paper flow — and the
// repository's extensions — through the public API against a cloud server
// on a real TCP socket:
//
//  1. users render photos, extract profiles, upload encrypted images;
//  2. the front end builds the secure index with compact profiles and
//     outsources everything;
//  3. discovery, multi-probe discovery and FoF boosting run remotely;
//  4. the dynamic index handles a profile update and a batch update;
//  5. the cloud persists its state, restarts, and a key-restored front
//     end keeps serving.
func TestFullSystemOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	const (
		nUsers = 400
		dim    = 200
	)
	ds, err := dataset.Generate(dataset.Config{
		Users: nUsers, Dim: dim, Topics: 12, TopicsPerUser: 2,
		ActiveWords: 25, Noise: 0.02, PersonalWeight: 0.4, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}

	// --- Cloud over TCP.
	cs := pisd.NewCloud()
	server := pisd.NewCloudServer(cs)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		server.Shutdown(ctx)
	}()
	client, err := pisd.DialCloud(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetTimeout(30 * time.Second)

	// --- Front end with compact (paper-sized) profiles.
	cfg := pisd.DefaultFrontendConfig(dim)
	cfg.LSH.Atoms = 2
	cfg.LSH.Width = 0.8
	cfg.ProbeRange = 8
	cfg.KeySeed = "integration"
	cfg.CompactProfiles = true
	sf, err := pisd.NewFrontend(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// --- Step 1: a user uploads a policy-encrypted image directly to CS.
	authority := sharing.NewAuthorityFromSeed("integration")
	im, err := pisd.RenderTopicImage(pisd.Topic(1), 3, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	var sample []pisd.Descriptor
	for i := int64(0); i < 3; i++ {
		img, err := pisd.RenderTopicImage(pisd.Topic(2), i, 96, 96)
		if err != nil {
			t.Fatal(err)
		}
		descs, err := extractDescriptors(img)
		if err != nil {
			t.Fatal(err)
		}
		sample = append(sample, descs...)
	}
	vocab, err := pisd.TrainVocabulary(sample, 16)
	if err != nil {
		t.Fatal(err)
	}
	usr, err := pisd.NewUser(1, vocab, pisd.LSHParams{Dim: 16, Tables: 4, Atoms: 2, Width: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	encImg, err := usr.EncryptImage(authority, sharing.AllOf("friend"), im)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.StoreImage(1, encImg.Ciphertext.Payload); err != nil {
		t.Fatal(err)
	}

	// --- Step 2: index build + outsourcing.
	uploads := make([]pisd.Upload, nUsers)
	for i, p := range ds.Profiles {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
	}
	idx, encProfiles, err := sf.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.InstallIndex(idx); err != nil {
		t.Fatal(err)
	}
	if err := client.PutProfiles(encProfiles); err != nil {
		t.Fatal(err)
	}

	// --- Step 3: discovery variants.
	matches, err := sf.Discover(client, ds.Profiles[0], 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no remote matches")
	}
	mp, err := sf.DiscoverMultiProbe(client, ds.Profiles[0], 5, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp) < len(matches) {
		t.Fatal("multi-probe returned fewer results")
	}
	graph := pisd.NewSocialGraph()
	graph.AddFriendship(1, 2)
	graph.AddFriendship(2, matches[0].ID)
	wide, err := sf.Discover(client, ds.Profiles[0], 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if boosted := pisd.BoostFoF(graph, 1, wide, 5); len(boosted) == 0 || boosted[0].ID != matches[0].ID {
		t.Fatalf("FoF boost over remote matches: %v", boosted)
	}
	batch, err := sf.DiscoverWithDecoys(client, [][]float64{ds.Profiles[0], ds.Profiles[1]}, 5, 3,
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("batched discovery returned %d target results", len(batch))
	}

	// --- Step 4: dynamic index with single and batch updates, remotely.
	dynIdx, dynClient, dynProfiles, err := sf.BuildDynamicIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.InstallDynIndex(dynIdx); err != nil {
		t.Fatal(err)
	}
	if err := client.PutProfiles(dynProfiles); err != nil {
		t.Fatal(err)
	}
	oldMeta := sf.ComputeMeta(ds.Profiles[9])
	newMeta := sf.ComputeMeta(ds.Profiles[100])
	if _, err := dynClient.BatchUpdate(client, []pisd.DynUpdate{
		{Op: pisd.OpDelete, ID: 10, Meta: oldMeta},
		{Op: pisd.OpInsert, ID: 10, Meta: newMeta},
	}); err != nil {
		t.Fatalf("remote batch update: %v", err)
	}
	ids, err := dynClient.Search(client, newMeta)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range ids {
		if id == 10 {
			found = true
		}
	}
	if !found {
		t.Fatal("batch-updated user not reachable under new metadata")
	}

	// --- Step 5: cloud persistence + key-restored front end.
	stateDir := t.TempDir()
	if err := cs.SaveTo(stateDir); err != nil {
		t.Fatal(err)
	}
	cs2 := pisd.NewCloud()
	if err := cs2.LoadFrom(stateDir); err != nil {
		t.Fatal(err)
	}
	keyBlob, err := sf.ExportKeys()
	if err != nil {
		t.Fatal(err)
	}
	params, err := sf.IndexParams()
	if err != nil {
		t.Fatal(err)
	}
	sf2, err := frontend.NewWithKeys(cfg, keyBlob)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf2.RestoreIndexParams(params); err != nil {
		t.Fatal(err)
	}
	restoredMatches, err := sf2.Discover(cs2, ds.Profiles[0], 5, 1)
	if err != nil {
		t.Fatalf("discovery after full restart: %v", err)
	}
	if len(restoredMatches) != len(matches) {
		t.Fatalf("restored results %d vs original %d", len(restoredMatches), len(matches))
	}
	for i := range matches {
		if restoredMatches[i].ID != matches[i].ID {
			t.Fatal("restored system ranks differently")
		}
	}
}
