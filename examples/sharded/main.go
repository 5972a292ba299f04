// Sharded deployment: the cloud tier runs as four TCP shard servers, each
// holding a projection of the secure index for the users it owns. The
// front end builds all four shard indexes from one global cuckoo
// placement, installs them, and fans every discovery trapdoor out to all
// shards in parallel. The demo verifies the headline property — the
// merged fan-out result is identical to a single-node deployment — and
// then kills one shard to show graceful degradation to a flagged partial
// result.
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pisd"
	"pisd/internal/dataset"
)

const (
	users   = 800
	dim     = 400
	nShards = 4
	topK    = 5
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Cloud tier: four independent shard servers, ciphertext only.
	servers := make([]*pisd.CloudServer, nShards)
	nodes := make([]pisd.ShardNode, nShards)
	for s := 0; s < nShards; s++ {
		srv := pisd.NewCloudServer(pisd.NewCloud())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		servers[s] = srv
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		remote := pisd.NewRemoteShard(addr)
		defer remote.Close()
		nodes[s] = remote
		fmt.Printf("cloud shard %d listening at %s\n", s, addr)
	}
	pool, err := pisd.NewShardPool(pisd.DefaultShardPoolConfig(), nodes...)
	if err != nil {
		return err
	}

	// --- Front end: one global placement, one projected index per shard.
	sf, err := pisd.NewFrontend(pisd.DefaultFrontendConfig(dim))
	if err != nil {
		return err
	}
	ds, err := dataset.Generate(dataset.Config{
		Users: users, Dim: dim, Topics: 12, TopicsPerUser: 2,
		ActiveWords: 40, Noise: 0.02, Seed: 3,
	})
	if err != nil {
		return err
	}
	uploads := make([]pisd.Upload, len(ds.Profiles))
	for i, p := range ds.Profiles {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
	}
	start := time.Now()
	shards, err := sf.BuildShardedIndex(uploads, nShards, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\nbuilt %d projected shard indexes in %s\n", nShards, time.Since(start).Round(time.Millisecond))
	for s, sh := range shards {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			return err
		}
		fmt.Printf("shard %d: %d encrypted profiles, index %.1f KB\n",
			s, len(sh.EncProfiles), float64(sh.Index.SizeBytes())/1024)
	}

	// --- Reference: the same dataset on a single in-process cloud node.
	single := pisd.NewCloud()
	idx, encProfiles, err := sf.BuildIndex(uploads)
	if err != nil {
		return err
	}
	single.SetIndex(idx)
	single.PutProfiles(encProfiles)

	// --- Fan-out discovery equals single-node discovery, user by user.
	target := uploads[4].Profile
	want, err := sf.Discover(single, target, topK, 5)
	if err != nil {
		return err
	}
	serving, err := sf.NewServing(pool, pisd.ServingConfig{})
	if err != nil {
		return err
	}
	got, partial, err := serving.Discover(context.Background(), target, topK, 5)
	if err != nil {
		return err
	}
	if partial {
		return fmt.Errorf("unexpected partial result with all shards alive")
	}
	fmt.Printf("\nfan-out discovery for user 5 (all %d shards alive):\n", nShards)
	for rank, m := range got {
		if m.ID != want[rank].ID {
			return fmt.Errorf("rank %d: sharded %d != single-node %d", rank, m.ID, want[rank].ID)
		}
		fmt.Printf("  %d. user %-5d distance %.4f topics %v   (matches single-node)\n",
			rank+1, m.ID, m.Distance, ds.UserTopics[m.ID-1])
	}

	// --- Kill a shard: discovery degrades to a flagged partial result
	//     covering the surviving shards' users.
	dead := 2
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := servers[dead].Shutdown(ctx); err != nil {
		return err
	}
	fmt.Printf("\nshard %d killed\n", dead)
	got, partial, err = serving.Discover(context.Background(), target, topK, 5)
	if err != nil {
		return err
	}
	if !partial {
		return fmt.Errorf("expected a partial result with shard %d dead", dead)
	}
	fmt.Printf("fan-out discovery for user 5 [PARTIAL — shard %d unreachable]:\n", dead)
	for rank, m := range got {
		if pool.Owner(m.ID) == dead {
			return fmt.Errorf("result contains user %d owned by the dead shard", m.ID)
		}
		fmt.Printf("  %d. user %-5d distance %.4f topics %v\n",
			rank+1, m.ID, m.Distance, ds.UserTopics[m.ID-1])
	}
	for s, err := range pool.Ping(context.Background()) {
		state := "healthy"
		if err != nil {
			state = "DOWN"
		}
		fmt.Printf("shard %d: %s\n", s, state)
	}
	return nil
}
