package frontend

import (
	"context"
	"testing"

	"pisd/internal/cloud"
	"pisd/internal/core"
)

// TestOracleMatchesDiscoverExactly pins the oracle to the real pipeline on
// a healthy single node: for every query, Discover through a cloud server
// and the plaintext oracle must return byte-identical rankings.
func TestOracleMatchesDiscoverExactly(t *testing.T) {
	const n = 300
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	uploads := uploadsFrom(ds, f)
	idx, encProfiles, err := f.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	oracle, err := f.BuildOracle(uploads)
	if err != nil {
		t.Fatalf("BuildOracle: %v", err)
	}

	for q := 0; q < 40; q++ {
		target := ds.Profiles[q%n]
		exclude := uint64(q%n + 1)
		got, err := f.Discover(cs, target, 7, exclude)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Discover(target, 7, exclude)
		if err := EqualMatches(got, want); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
	}

	// Profile deletion narrows both the pipeline and the oracle the same
	// way: the cloud skips identifiers without profiles.
	victim := uint64(1)
	cs.DeleteProfile(victim)
	oracle.RemoveProfile(victim)
	got, err := f.Discover(cs, ds.Profiles[0], 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got {
		if m.ID == victim {
			t.Fatalf("deleted user %d still recommended", victim)
		}
	}
	if err := EqualMatches(got, oracle.Discover(ds.Profiles[0], 7, 0)); err != nil {
		t.Fatalf("after delete: %v", err)
	}
}

// TestOracleMatchesShardedPartialSubsets checks DiscoverOwned against real
// partial deployments: serving only a subset of shards must equal the
// oracle restricted to that subset's users.
func TestOracleMatchesShardedPartialSubsets(t *testing.T) {
	const n, shards = 240, 3
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	uploads := uploadsFrom(ds, f)
	built, err := f.BuildShardedIndex(uploads, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := f.BuildOracle(uploads)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*cloud.Server, shards)
	for s := range nodes {
		nodes[s] = cloud.New()
		nodes[s].SetIndex(built[s].Index)
		nodes[s].PutProfiles(built[s].EncProfiles)
	}

	// subsetPool serves SecRecBatch from an arbitrary alive-set of local
	// shards, merging shard-major like shard.Pool does.
	for mask := 1; mask < 1<<shards; mask++ {
		alive := func(id uint64) bool { return mask&(1<<(id%shards)) != 0 }
		pool := subsetPool{nodes: nodes, mask: mask}
		for q := 0; q < 10; q++ {
			target := ds.Profiles[(mask*13+q)%n]
			got, _, err := uncached(t, f, pool).Discover(context.Background(), target, 6, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.DiscoverOwned(target, 6, 0, alive)
			if err := EqualMatches(got, want); err != nil {
				t.Fatalf("mask %b query %d: %v", mask, q, err)
			}
		}
	}
}

type subsetPool struct {
	nodes []*cloud.Server
	mask  int
}

func (p subsetPool) SecRecBatch(ctx context.Context, tds []*core.Trapdoor) ([][]uint64, [][][]byte, bool, error) {
	ids := make([][]uint64, len(tds))
	profiles := make([][][]byte, len(tds))
	for s, node := range p.nodes {
		if p.mask&(1<<s) == 0 {
			continue
		}
		sids, sprofiles, err := node.SecRecBatch(ctx, tds)
		if err != nil {
			return nil, nil, false, err
		}
		for q := range tds {
			ids[q] = append(ids[q], sids[q]...)
			profiles[q] = append(profiles[q], sprofiles[q]...)
		}
	}
	return ids, profiles, p.mask != 1<<len(p.nodes)-1, nil
}

// TestRehashedBuildMatchesOracle forces Algorithm 1's rehash() step: a
// two-bucket probe window and a 20-kick budget saturate the first LSH
// family's placement of this population, and a fresh family places it.
// The single-node build must then answer exactly as the oracle replaying
// that rehashed placement.
func TestRehashedBuildMatchesOracle(t *testing.T) {
	cfg := testConfig()
	cfg.ProbeRange, cfg.MaxLoop = 2, 20
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, 200)
	uploads := uploadsFrom(ds, f)
	idx, encProfiles, err := f.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if !f.rehashed {
		t.Fatal("build placed the first family; the test no longer reaches rehash()")
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	oracle, err := f.BuildOracle(uploads)
	if err != nil {
		t.Fatalf("BuildOracle: %v", err)
	}
	for q := 0; q < 20; q++ {
		got, err := f.Discover(cs, ds.Profiles[q], 5, uint64(q+1))
		if err != nil {
			t.Fatal(err)
		}
		if err := EqualMatches(got, oracle.Discover(ds.Profiles[q], 5, uint64(q+1))); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
	}
}
