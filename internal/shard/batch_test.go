package shard

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestSecRecBatchEqualsSerialFanout checks a fan-out of q against q
// fan-outs of one: with every shard alive, result q of one SecRecBatch must
// equal SecRec(ts[q]) — the batch [ts[q]] — exactly.
func TestSecRecBatchEqualsSerialFanout(t *testing.T) {
	const n, shards = 300, 4

	f := testFrontend(t, "shard-batch")
	uploads, ds := testUploads(t, f, n)
	pool := localPool(t, f, uploads, shards)

	queries, _ := ds.Queries(12, 31)
	tds, err := f.Trapdoors(queries)
	if err != nil {
		t.Fatal(err)
	}
	ids, profiles, partial, err := pool.SecRecBatch(context.Background(), tds)
	if err != nil {
		t.Fatalf("SecRecBatch: %v", err)
	}
	if partial {
		t.Fatal("unexpected partial result with all shards alive")
	}
	if len(ids) != len(tds) || len(profiles) != len(tds) {
		t.Fatalf("batch of %d answered with %d/%d results", len(tds), len(ids), len(profiles))
	}
	for q, td := range tds {
		wantIDs, wantProfiles, partial, err := pool.SecRec(context.Background(), td)
		if err != nil {
			t.Fatal(err)
		}
		if partial {
			t.Fatal("unexpected partial serial result")
		}
		if !reflect.DeepEqual(ids[q], wantIDs) {
			t.Fatalf("query %d ids: %v, want %v", q, ids[q], wantIDs)
		}
		if !reflect.DeepEqual(profiles[q], wantProfiles) {
			t.Fatalf("query %d profiles differ from serial fan-out", q)
		}
	}

	// Empty batch short-circuits.
	ids, profiles, partial, err = pool.SecRecBatch(context.Background(), nil)
	if err != nil || partial || ids != nil || profiles != nil {
		t.Fatalf("empty batch = %v %v %v %v", ids, profiles, partial, err)
	}
}

// TestBatchPartialOnDeadShard kills one remote shard and checks the
// batched discovery path end to end: every query of the batch must return
// exactly the serial sharded result over the surviving shards, flagged
// partial once for the whole batch.
func TestBatchPartialOnDeadShard(t *testing.T) {
	const n, shards, dead = 240, 4, 1

	f := testFrontend(t, "shard-batch-partial")
	uploads, ds := testUploads(t, f, n)
	cfg := DefaultConfig()
	cfg.Timeout = 2 * time.Second
	pool, servers := remotePool(t, f, uploads, shards, cfg)
	shutdownServer(t, servers[dead])

	queries, _ := ds.Queries(6, 17)
	got, partial, err := f.DiscoverShardedBatch(context.Background(), pool, queries, n+1, nil)
	if err != nil {
		t.Fatalf("DiscoverShardedBatch: %v", err)
	}
	if !partial {
		t.Fatal("expected partial result with a dead shard")
	}
	if len(got) != len(queries) {
		t.Fatalf("%d results for %d queries", len(got), len(queries))
	}
	for qi, q := range queries {
		want, wantPartial, err := uncached(t, f, pool).Discover(context.Background(), q, n+1, 0)
		if err != nil {
			t.Fatalf("query %d: Discover: %v", qi, err)
		}
		if !wantPartial {
			t.Fatalf("query %d: serial reference not partial", qi)
		}
		if len(got[qi]) != len(want) {
			t.Fatalf("query %d: got %d matches, want %d", qi, len(got[qi]), len(want))
		}
		for i := range want {
			if got[qi][i].ID != want[i].ID || got[qi][i].Distance != want[i].Distance {
				t.Fatalf("query %d rank %d: got (%d, %v), want (%d, %v)",
					qi, i, got[qi][i].ID, got[qi][i].Distance, want[i].ID, want[i].Distance)
			}
		}
		for _, m := range got[qi] {
			if pool.Owner(m.ID) == dead {
				t.Fatalf("query %d: id %d owned by dead shard", qi, m.ID)
			}
		}
	}
}

// TestBatchAllShardsDeadErrors mirrors the serial contract: a batch over a
// fully dead pool fails rather than returning empty partial results.
func TestBatchAllShardsDeadErrors(t *testing.T) {
	const n, shards = 120, 2

	f := testFrontend(t, "shard-batch-all-dead")
	uploads, ds := testUploads(t, f, n)
	cfg := DefaultConfig()
	cfg.Timeout = 2 * time.Second
	pool, servers := remotePool(t, f, uploads, shards, cfg)
	for _, srv := range servers {
		shutdownServer(t, srv)
	}
	queries, _ := ds.Queries(2, 3)
	if _, _, err := f.DiscoverShardedBatch(context.Background(), pool, queries, 10, nil); err == nil {
		t.Fatal("expected error with every shard dead")
	}
}
