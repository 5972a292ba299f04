package frontend

import (
	"context"
	"fmt"
	"sync"

	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/lsh"
	"pisd/internal/obs"
	"pisd/internal/subs"
)

// ServingConfig tunes the multi-core serving path: admission control and
// the search-pattern result cache.
type ServingConfig struct {
	// MaxInflight bounds admitted concurrent discoveries; excess calls
	// are rejected with ErrOverloaded. <= 0 means unbounded.
	MaxInflight int
	// CacheEntries bounds the result cache; <= 0 disables caching.
	CacheEntries int
}

// DefaultServingConfig returns the serving defaults: 256 admitted queries
// and a 4096-entry cache.
func DefaultServingConfig() ServingConfig {
	return ServingConfig{MaxInflight: 256, CacheEntries: 4096}
}

// Serving is the static scheme's high-throughput discovery path: an
// admission gate in front of a trapdoor-keyed result cache in front of the
// shard fan-out. Every miss is its own batch-of-one exchange under the
// caller's context; repeated search patterns are answered entirely at the
// frontend with zero cloud traffic (the cache key is the trapdoor the
// cloud would have seen — already-admitted leakage, DESIGN.md §15). Safe
// for concurrent use.
type Serving struct {
	f     *Frontend
	fan   FanoutBatchServer
	cache *ResultCache
	gate  *AdmissionGate
}

// NewServing builds the serving path over a sharded fan-out (shard.Pool
// implements FanoutBatchServer; wrap a single cloud server or transport
// client with SingleFanout).
func (f *Frontend) NewServing(pool FanoutBatchServer, cfg ServingConfig) (*Serving, error) {
	if pool == nil {
		return nil, fmt.Errorf("frontend: serving needs a fan-out server")
	}
	return &Serving{
		f:     f,
		fan:   pool,
		cache: NewResultCache(cfg.CacheEntries),
		gate:  NewAdmissionGate(cfg.MaxInflight),
	}, nil
}

// Cache exposes the serving path's result cache (nil when disabled).
func (s *Serving) Cache() *ResultCache { return s.cache }

// Discover runs one discovery through the serving path: admission →
// trapdoor → cache → fan-out → decrypt → exact distance
// ranking. The matches are byte-identical to an uncached Serving over the
// same healthy shards: a cache hit replays the exact candidate set the
// cloud returned for this trapdoor, and ranking is deterministic.
// Overload returns ErrOverloaded before any work is done.
func (s *Serving) Discover(ctx context.Context, targetProfile []float64, k int, excludeID uint64) ([]Match, bool, error) {
	if err := s.gate.Acquire(); err != nil {
		return nil, false, err
	}
	defer s.gate.Release()
	var sp obs.Span
	sp.StartTraced(obs.TraceFrom(ctx))
	td, err := s.f.Trapdoor(targetProfile)
	if err != nil {
		return nil, false, err
	}
	sp.Mark("trapdoor", fmet.trapdoorNs)
	c, err := s.cache.lookup(trapdoorKey(td), nil, func() (candidates, error) {
		cands, err := s.f.fetchStatic(ctx, s.fan, s.cache, []*core.Trapdoor{td}, &sp)
		if err != nil {
			return candidates{}, err
		}
		return cands[0], nil
	})
	if err != nil {
		return nil, false, err
	}
	matches, partial := finishOne(&sp, fmet.discoverNs, targetProfile, c, k, excludeID)
	return matches, partial, nil
}

// DynServing is the dynamic scheme's cached serving path: searches are
// cached keyed on the bucket references the cloud observes, and every
// insert/delete invalidates exactly the entries whose read set intersects
// the buckets it re-seals. The invalidation hook rides StoreBuckets —
// every round of the dynamic protocols (including each kick of an insert
// chain) re-seals its full fetched batch through it, so no mutated bucket
// escapes the hook. Safe for concurrent use; mutations serialize against
// searches so a search result can never be cached after the update that
// outdates it.
type DynServing struct {
	f       *Frontend
	clients []*core.DynClient // clients[s] holds shard s's round keys
	nodes   []DynNode         // nodes[s] is shard s's cloud surface: the search fan-out
	writes  []DynNode         // nodes behind the cache-invalidation hook: the update path
	owner   func(uint64) int
	cache   *ResultCache
	gate    *AdmissionGate

	// subsm is the attached subscription manager (nil when the serving
	// path runs without standing queries); its hooks run under churn,
	// after the mutation they evaluate succeeded.
	subsm *subs.Manager

	// churn serializes mutations (write side) against search+cache-fill
	// (read side): without it a slow search could fetch buckets, lose the
	// race to an insert, then cache the pre-insert answer after the
	// insert's invalidation pass already ran.
	churn sync.RWMutex
}

// NewDynServing builds the dynamic serving path: the one way the front end
// searches, inserts into, deletes from and re-syncs a dynamic shard.
// shards[s] must pair with nodes[s] and carry shard s's client; a nil
// owner means core.DefaultOwner. A zero cfg is the uncached, unbounded
// path. Only the clients are kept: the shards' build-time index and
// ciphertexts live at the cloud.
func (f *Frontend) NewDynServing(shards []DynShard, nodes []DynNode, owner func(uint64) int, cfg ServingConfig) (*DynServing, error) {
	if len(shards) == 0 || len(shards) != len(nodes) {
		return nil, fmt.Errorf("frontend: %d shards but %d nodes", len(shards), len(nodes))
	}
	if owner == nil {
		owner = core.DefaultOwner(len(shards))
	}
	cache := NewResultCache(cfg.CacheEntries)
	clients := make([]*core.DynClient, len(shards))
	writes := make([]DynNode, len(nodes))
	for s, n := range nodes {
		if shards[s].Client == nil || n == nil {
			return nil, fmt.Errorf("frontend: shard %d has no dynamic client or node", s)
		}
		clients[s] = shards[s].Client
		writes[s] = invalidatingNode{DynNode: n, cache: cache}
	}
	return &DynServing{
		f:       f,
		clients: clients,
		nodes:   nodes,
		writes:  writes,
		owner:   owner,
		cache:   cache,
		gate:    NewAdmissionGate(cfg.MaxInflight),
	}, nil
}

// Cache exposes the dynamic serving path's result cache (nil when
// disabled).
func (s *DynServing) Cache() *ResultCache { return s.cache }

// Search runs one cached dynamic discovery. A hit replays the merged
// candidate set of the last identical search with zero cloud traffic;
// the result matches an uncached search exactly as long as no intervening
// update touched the addressed buckets — which the invalidation hook
// guarantees.
func (s *DynServing) Search(targetProfile []float64, k int, excludeID uint64) ([]Match, bool, error) {
	if err := s.gate.Acquire(); err != nil {
		return nil, false, err
	}
	defer s.gate.Release()
	s.churn.RLock()
	defer s.churn.RUnlock()
	meta, err := s.f.hash(targetProfile)
	if err != nil {
		return nil, false, err
	}
	var sp obs.Span
	sp.Start()
	c, err := s.candidates(meta, &sp)
	if err != nil {
		return nil, false, err
	}
	matches, partial := finishOne(&sp, fmet.dynNs, targetProfile, c, k, excludeID)
	return matches, partial, nil
}

// candidates is the cache-integrated candidate fetch shared by Search and
// subscription seeding, keyed on the bucket references the cloud would
// observe: a hit costs zero cloud traffic. Callers hold churn.
func (s *DynServing) candidates(meta lsh.Metadata, sp *obs.Span) (candidates, error) {
	refs, err := s.clients[0].Refs(meta)
	if err != nil {
		return candidates{}, err
	}
	sp.Mark("trapdoor", fmet.trapdoorNs)
	return s.cache.lookup(refsKey(refs), refs, func() (candidates, error) {
		return s.fetchDynamic(meta, sp)
	})
}

// Insert routes a dynamic insertion to the owning shard with the cache
// invalidation hook installed on that shard's bucket store. After the
// insert succeeds, its acknowledged profile put joins the held set as a leg
// of one id, and attached subscriptions are evaluated against the new
// profile frontend-side — zero additional cloud operations (§18). Routing,
// hashing, encryption and the subscription write set are pure and run
// before the insert takes the churn lock. An insert that fails at its
// profile upload drops the id from the held set: the cloud may hold either
// ciphertext, and the upload named the id in clear. One that fails in the
// bucket rounds never sent the upload and leaves the held set alone.
func (s *DynServing) Insert(id uint64, profile []float64) error {
	u, err := s.prepareInsert(id, profile)
	if err != nil {
		return err
	}
	written := s.insertWrites(u)
	var tag profileTag
	var vec []float64
	if s.cache != nil {
		tag, _ = crypt.Tag(u.ct)
		vec = crypt.DecodedProfile(profile, s.f.cfg.CompactProfiles)
	}
	s.churn.Lock()
	defer s.churn.Unlock()
	if sent, err := s.dynInsert(u); err != nil {
		if sent {
			s.cache.forget(id)
		}
		return err
	}
	s.cache.hold([]uint64{id}, [][]byte{u.ct}, []profileTag{tag}, [][]float64{vec})
	if written != nil {
		s.subsm.OnInsert(id, profile, written)
	}
	return nil
}

// Delete routes a secure deletion to the owning shard with the cache
// invalidation hook installed on that shard's bucket store. After the
// delete succeeds, the profile's vector leaves the profile table and the
// profile is evicted from every attached standing result, promoting
// runners-up. A delete that fails at its profile removal drops the id from
// the held set too: the cloud may no longer hold its ciphertext. One that
// fails in the bucket rounds never sent the removal and leaves it alone.
func (s *DynServing) Delete(id uint64, profile []float64) error {
	u, err := s.prepareUpdate(id, profile)
	if err != nil {
		return err
	}
	s.churn.Lock()
	defer s.churn.Unlock()
	sent, err := s.dynDelete(u)
	if sent {
		s.cache.forget(id)
	}
	if err != nil {
		return err
	}
	if s.subsm != nil {
		s.subsm.OnDelete(id)
	}
	return nil
}

// invalidatingNode decorates a DynNode: every bucket write first drops
// the cache entries it outdates.
type invalidatingNode struct {
	DynNode
	cache *ResultCache
}

func (n invalidatingNode) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	n.cache.InvalidateRefs(refs)
	return n.DynNode.StoreBuckets(refs, buckets)
}
