package shard

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/faultnet"
	"pisd/internal/frontend"
	"pisd/internal/obs"
	"pisd/internal/transport"
)

// startServer runs a transport server over an (optionally installed)
// cloud and returns its address.
func startServer(t *testing.T, cs *cloud.Server) string {
	t.Helper()
	srv := transport.NewServer(cs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return addr
}

// TestRemoteConnPoolDispatch pins the pool's dispatch policy: lazy dials
// up to the configured size while live connections are busy, idle
// connections reused before any new dial, least-loaded connection chosen
// once the pool is full.
func TestRemoteConnPoolDispatch(t *testing.T) {
	addr := startServer(t, cloud.New())
	r := NewRemote(addr)
	defer r.Close()
	r.SetConns(3)
	if got := r.Conns(); got != 3 {
		t.Fatalf("Conns() = %d, want 3", got)
	}

	s1, err := r.acquire()
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	if live := r.LiveConns(); live != 1 {
		t.Fatalf("after first acquire: %d live conns, want 1", live)
	}
	// s1 is busy, so the next call must open a second connection rather
	// than pile onto the same gob stream.
	s2, err := r.acquire()
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if s2 == s1 {
		t.Fatal("second concurrent call dispatched onto the busy connection")
	}
	s3, err := r.acquire()
	if err != nil {
		t.Fatalf("acquire 3: %v", err)
	}
	if s3 == s1 || s3 == s2 {
		t.Fatal("third concurrent call did not open the third connection")
	}
	if live := r.LiveConns(); live != 3 {
		t.Fatalf("pool not fully dialed: %d live conns, want 3", live)
	}

	// Pool exhausted: the least-loaded connection takes the overflow.
	s2.inflight.Add(-1) // release s2
	s4, err := r.acquire()
	if err != nil {
		t.Fatalf("acquire 4: %v", err)
	}
	if s4 != s2 {
		t.Fatal("overflow call not dispatched to the least-loaded connection")
	}
	s1.inflight.Add(-1)
	s3.inflight.Add(-1)
	s4.inflight.Add(-1)

	// An idle live connection is preferred over dialing into a freed slot.
	r.SetConns(1)
	if live := r.LiveConns(); live != 1 {
		t.Fatalf("after shrink: %d live conns, want 1", live)
	}
	r.SetConns(2)
	s5, err := r.acquire()
	if err != nil {
		t.Fatalf("acquire after regrow: %v", err)
	}
	if live := r.LiveConns(); live != 1 {
		t.Fatalf("idle connection not reused: %d live conns, want 1", live)
	}
	s5.inflight.Add(-1)
}

// TestRemotePooledConnFaultNoPartial is the regression for the partial
// flag under pooled-connection faults: killing ONE pooled connection —
// not the shard — mid-traffic must not degrade the fan-out to a partial
// result, on the SecRec and the SecRecBatch path alike. The failing call
// drops only its own connection, the pool's bounded retry lands on the
// surviving one, and the shard answers in full.
func TestRemotePooledConnFaultNoPartial(t *testing.T) {
	const n, k = 200, 5
	f := testFrontend(t, "connpool-fault")
	uploads, ds := testUploads(t, f, n)
	shards, err := f.BuildShardedIndex(uploads, 1, nil)
	if err != nil {
		t.Fatalf("BuildShardedIndex: %v", err)
	}

	fn := faultnet.New(faultnet.Plan{Seed: 42})
	fn.SetEnabled(false) // only scripted faults
	addr := startServer(t, cloud.New())
	// Reach the server through the fault-injecting dialer with a
	// two-connection pool.
	remote := NewRemoteDialer(addr, fn.Dialer("shard0"))
	defer remote.Close()
	remote.SetConns(2)

	pool, err := NewPool(DefaultConfig(), remote)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if err := pool.InstallShard(0, shards[0].Index, shards[0].EncProfiles); err != nil {
		t.Fatalf("InstallShard: %v", err)
	}

	// Prime both pooled connections so the fault hits a live pool.
	c1, err := remote.acquire()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := remote.acquire()
	if err != nil {
		t.Fatal(err)
	}
	c1.inflight.Add(-1)
	c2.inflight.Add(-1)
	if live := remote.LiveConns(); live != 2 {
		t.Fatalf("primed %d conns, want 2", live)
	}

	queries, _ := ds.Queries(3, 7)
	tds := make([]*core.Trapdoor, len(queries))
	for i, q := range queries {
		td, err := f.Trapdoor(q)
		if err != nil {
			t.Fatal(err)
		}
		tds[i] = td
	}

	// Healthy baselines.
	wantIDs, wantProfiles, partial, err := pool.SecRec(context.Background(), tds[0])
	if err != nil || partial {
		t.Fatalf("healthy SecRec: partial=%v err=%v", partial, err)
	}
	wantBatchIDs, wantBatchProfiles, partial, err := pool.SecRecBatch(context.Background(), tds)
	if err != nil || partial {
		t.Fatalf("healthy SecRecBatch: partial=%v err=%v", partial, err)
	}

	// Kill one pooled connection under a single-query fan-out.
	fn.FailNextWrites("shard0", 1)
	ids, profiles, partial, err := pool.SecRec(context.Background(), tds[0])
	if err != nil {
		t.Fatalf("SecRec with one dead pooled conn: %v", err)
	}
	if partial {
		t.Fatal("SecRec degraded to partial after a single pooled connection died")
	}
	if !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(profiles, wantProfiles) {
		t.Fatal("SecRec result diverged after pooled connection fault")
	}

	// Same mid-batch: one connection dies under SecRecBatch.
	fn.FailNextWrites("shard0", 1)
	bIDs, bProfiles, partial, err := pool.SecRecBatch(context.Background(), tds)
	if err != nil {
		t.Fatalf("SecRecBatch with one dead pooled conn: %v", err)
	}
	if partial {
		t.Fatal("SecRecBatch degraded to partial after a single pooled connection died")
	}
	if !reflect.DeepEqual(bIDs, wantBatchIDs) || !reflect.DeepEqual(bProfiles, wantBatchProfiles) {
		t.Fatal("SecRecBatch result diverged after pooled connection fault")
	}
}

var _ frontend.FanoutBatchServer = (*Pool)(nil)

// TestRemotePutProfilesSubBatches pins the install path's framing: a
// shard's profiles ship in bounded sub-batches, so no single frame (and
// hence no connection's persistent encode buffer) grows with the shard,
// and every profile still lands.
func TestRemotePutProfilesSubBatches(t *testing.T) {
	const profiles, size = 40, 100 << 10 // 4 MB of ciphertext
	cs := cloud.New()
	r := NewRemote(startServer(t, cs))
	defer r.Close()

	all := make(map[uint64][]byte, profiles)
	for id := uint64(1); id <= profiles; id++ {
		ct := make([]byte, size)
		ct[0] = byte(id)
		all[id] = ct
	}
	frames := transportCounter("transport.frames_out")
	if err := r.PutProfiles(all); err != nil {
		t.Fatal(err)
	}
	want := int64(profiles * size / putBatchBytes)
	if got := transportCounter("transport.frames_out") - frames; got < want || got > want+1 {
		t.Fatalf("%d bytes of profiles shipped in %d frames, want about %d", profiles*size, got, want)
	}
	if got := cs.NumProfiles(); got != profiles {
		t.Fatalf("server holds %d profiles, want %d", got, profiles)
	}
	ids := make([]uint64, 0, profiles)
	for id := range all {
		ids = append(ids, id)
	}
	got, err := r.FetchProfiles(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if !reflect.DeepEqual(got[i], all[id]) {
			t.Fatalf("profile %d corrupted in transit", id)
		}
	}
	// An empty upload is still one call: it is how a dead shard fails at
	// install time.
	frames = transportCounter("transport.frames_out")
	if err := r.PutProfiles(nil); err != nil {
		t.Fatal(err)
	}
	if got := transportCounter("transport.frames_out") - frames; got != 1 {
		t.Fatalf("empty upload sent %d frames, want 1", got)
	}
}

func transportCounter(name string) int64 { return obs.Default.Counter(name).Load() }
