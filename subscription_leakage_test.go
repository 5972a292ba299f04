// DESIGN.md §18's claim, checked end to end through counters: standing
// subscriptions are invisible to the cloud and the wire. Two deployments
// built from identical seeds and keys run the identical update batch over
// real TCP transport — one with N active subscriptions evaluating and
// notifying on every mutation, one with none — and every per-shard cloud
// counter delta and every process transport counter delta must be
// byte-identical between the two. Registration itself is also pinned:
// after its seed search pattern is in the result cache, registering a
// subscription moves no cloud or transport counter at all.
package pisd_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/lsh"
	"pisd/internal/obs"
	"pisd/internal/shard"
	"pisd/internal/subs"
	"pisd/internal/transport"
)

const (
	leakSubUsers  = 120
	leakSubDim    = 48
	leakSubShards = 2
	leakSubN      = 20 // active subscriptions in the subscribing world
)

// leakSubWorld is one of the two twin deployments: sharded dynamic
// indexes behind real transport servers, per-shard cloud registries.
type leakSubWorld struct {
	f       *frontend.Frontend
	ds      *dataset.Dataset
	serving *frontend.DynServing
	regs    []*obs.Registry
	notes   []subs.Notification
}

// newLeakSubWorld builds one twin. Both twins use the SAME key seed and
// dataset seed, so their key material, DRBG streams, placements and
// ciphertexts are identical — any counter divergence between them is
// attributable to the one variable that differs: active subscriptions.
func newLeakSubWorld(t *testing.T) *leakSubWorld {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Users: leakSubUsers + 100, Dim: leakSubDim, Topics: 8, TopicsPerUser: 2,
		ActiveWords: 12, Noise: 0.02, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := frontend.New(frontend.Config{
		LSH:        lsh.Params{Dim: leakSubDim, Tables: 5, Atoms: 2, Width: 0.8, Seed: 9},
		LoadFactor: 0.6,
		ProbeRange: 4,
		MaxLoop:    300,
		MaxRehash:  3,
		Seed:       9,
		KeySeed:    "leakage-subscriptions",
	})
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([]frontend.Upload, leakSubUsers)
	for i := 0; i < leakSubUsers; i++ {
		uploads[i] = frontend.Upload{ID: uint64(i + 1), Profile: ds.Profiles[i], Meta: f.ComputeMeta(ds.Profiles[i])}
	}
	built, err := f.BuildShardedDynamicIndex(uploads, leakSubShards, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &leakSubWorld{f: f, ds: ds, regs: make([]*obs.Registry, leakSubShards)}
	nodes := make([]frontend.DynNode, leakSubShards)
	for s := range built {
		cs := cloud.New()
		w.regs[s] = obs.NewRegistry()
		cs.SetRegistry(w.regs[s])
		srv := transport.NewServer(cs)
		ln, err := netListen(t)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(ln); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		remote := shard.NewRemote(ln.Addr().String())
		remote.SetTimeout(5 * time.Second)
		t.Cleanup(func() { remote.Close() })
		if err := remote.InstallDynIndex(built[s].Index); err != nil {
			t.Fatal(err)
		}
		if err := remote.PutProfiles(built[s].EncProfiles); err != nil {
			t.Fatal(err)
		}
		nodes[s] = remote
	}
	w.serving, err = f.NewDynServing(built, nodes, nil, frontend.ServingConfig{CacheEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// warm runs the N subscriber seed-search patterns, filling the result
// cache identically in both twins (and consuming identical traffic).
func (w *leakSubWorld) warm(t *testing.T) {
	t.Helper()
	for i := 0; i < leakSubN; i++ {
		if _, partial, err := w.serving.Search(w.ds.Profiles[i], 5, 0); err != nil || partial {
			t.Fatalf("warm search %d: partial=%v err=%v", i, partial, err)
		}
	}
}

// runBatch applies the identical update script: inserts (every third one
// an exact duplicate of a subscribed profile, guaranteeing evaluations
// and notifications in the subscribing twin), deletes and repeat
// searches.
func (w *leakSubWorld) runBatch(t *testing.T) {
	t.Helper()
	for i := 0; i < 9; i++ {
		id := uint64(leakSubUsers + 1 + i)
		profile := w.ds.Profiles[leakSubUsers+i]
		if i%3 == 0 {
			profile = w.ds.Profiles[i%leakSubN] // duplicate of subscriber i+1
		}
		if err := w.serving.Insert(id, profile); err != nil {
			t.Fatalf("batch insert %d: %v", id, err)
		}
	}
	for _, id := range []uint64{2, 7, 11} {
		if err := w.serving.Delete(id, w.ds.Profiles[id-1]); err != nil {
			t.Fatalf("batch delete %d: %v", id, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, partial, err := w.serving.Search(w.ds.Profiles[5], 5, 0); err != nil || partial {
			t.Fatalf("batch search: partial=%v err=%v", partial, err)
		}
	}
}

func (w *leakSubWorld) cloudSnapshots() []map[string]int64 {
	out := make([]map[string]int64, len(w.regs))
	for s, reg := range w.regs {
		out[s] = counters(reg)
	}
	return out
}

// counterDelta returns the per-key movement between two snapshots,
// dropping zero deltas so maps compare independent of key presence.
func counterDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func TestLeakageInvariantSubscriptions(t *testing.T) {
	// Isolate transport and subscription metrics so deltas are
	// attributable to this test alone. The transport registry is restored
	// by the first-registered cleanup, which runs last: after the worlds'
	// own cleanups have closed every client and shut every server down, so
	// no transport goroutine is left to read the handles being swapped.
	treg := obs.NewRegistry()
	transport.SetRegistry(treg)
	t.Cleanup(func() { transport.SetRegistry(obs.Default) })
	sreg := obs.NewRegistry()
	subs.SetRegistry(sreg)
	defer subs.SetRegistry(obs.Default)

	withSubs := newLeakSubWorld(t)
	withoutSubs := newLeakSubWorld(t)
	withSubs.warm(t)
	withoutSubs.warm(t)

	// Registration is invisible: with its search pattern cached, each of
	// the N Subscribe calls is a pure frontend computation — zero movement
	// on every cloud counter of every shard and on every transport
	// counter.
	withSubs.serving.AttachSubscriptions(func(n subs.Notification) {
		withSubs.notes = append(withSubs.notes, n)
	})
	cloudBefore := withSubs.cloudSnapshots()
	wireBefore := counters(treg)
	for i := 0; i < leakSubN; i++ {
		if _, err := withSubs.serving.Subscribe(uint64(i+1), withSubs.ds.Profiles[i], 3); err != nil {
			t.Fatalf("subscribe %d: %v", i+1, err)
		}
	}
	for s, before := range cloudBefore {
		if d := counterDelta(before, counters(withSubs.regs[s])); len(d) != 0 {
			t.Fatalf("registering %d subscriptions moved cloud counters on shard %d: %v", leakSubN, s, d)
		}
	}
	if d := counterDelta(wireBefore, counters(treg)); len(d) != 0 {
		t.Fatalf("registering %d subscriptions moved transport counters: %v", leakSubN, d)
	}
	if got := sreg.Snapshot().Gauges["subs.registered"]; got != leakSubN {
		t.Fatalf("subs.registered = %d, want %d", got, leakSubN)
	}

	// The identical update batch, measured per twin.
	cloudBefore = withSubs.cloudSnapshots()
	wireBefore = counters(treg)
	withSubs.runBatch(t)
	subCloud := make([]map[string]int64, leakSubShards)
	for s := range withSubs.regs {
		subCloud[s] = counterDelta(cloudBefore[s], counters(withSubs.regs[s]))
	}
	subWire := counterDelta(wireBefore, counters(treg))

	cloudBefore = withoutSubs.cloudSnapshots()
	wireBefore = counters(treg)
	withoutSubs.runBatch(t)
	bareCloud := make([]map[string]int64, leakSubShards)
	for s := range withoutSubs.regs {
		bareCloud[s] = counterDelta(cloudBefore[s], counters(withoutSubs.regs[s]))
	}
	bareWire := counterDelta(wireBefore, counters(treg))

	// The differential: N live subscriptions evaluated on every mutation,
	// yet every observable counter moved identically to the
	// zero-subscription twin.
	for s := 0; s < leakSubShards; s++ {
		if !reflect.DeepEqual(subCloud[s], bareCloud[s]) {
			t.Errorf("shard %d cloud deltas differ:\nwith subscriptions: %v\nwithout:            %v",
				s, subCloud[s], bareCloud[s])
		}
	}
	if !reflect.DeepEqual(subWire, bareWire) {
		t.Errorf("transport deltas differ:\nwith subscriptions: %v\nwithout:            %v", subWire, bareWire)
	}

	// And the subscriptions were demonstrably ACTIVE: duplicate-profile
	// inserts entered standing results and notified.
	if len(withSubs.notes) == 0 {
		t.Fatal("no notifications emitted — the subscribing twin verified nothing")
	}
	sc := sreg.Snapshot().Counters
	if sc["subs.notifications"] == 0 || sc["subs.evals"] == 0 {
		t.Fatalf("subscription metrics did not move: %v", sc)
	}
	for i := 0; i < leakSubN; i++ {
		if _, ok := withSubs.serving.Subscriptions().TopK(uint64(i + 1)); !ok {
			t.Fatalf("subscription %d vanished", i+1)
		}
	}
}
