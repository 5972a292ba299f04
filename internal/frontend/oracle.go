package frontend

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"pisd/internal/core"
	"pisd/internal/vec"
)

// Oracle is the plaintext reference the differential simulation suite
// checks the encrypted pipeline against. It pairs a core.PlainMirror —
// the exact plaintext replay of the secure index's cuckoo placement —
// with the unencrypted profile store, and answers discovery queries the
// way Algorithm 3 must: candidate lookup in SecRec order, exclusion,
// exact squared-distance ranking, top-k selection. Any divergence between
// the oracle and the encrypted stack is a bug in the stack (or in the
// network between its tiers), never an approximation artifact.
//
// Distances are exact only when the frontend encrypts full-precision
// profiles (CompactProfiles=false); the simulation suite runs that way.
// All methods are safe for concurrent use, matching the concurrent
// workloads the suite drives.
type Oracle struct {
	f      *Frontend
	mirror *core.PlainMirror // nil for dynamic-only oracles

	mu       sync.Mutex
	profiles map[uint64][]float64
}

// BuildOracle replays the placement of the most recent static build —
// BuildIndex or BuildShardedIndex — in plaintext. It must be called with
// the same uploads, after the build succeeded: prepare() is re-run under
// the same LSH family (including any rehash the build went through), so
// the mirror's cuckoo placement reproduces the secure one slot for slot.
func (f *Frontend) BuildOracle(uploads []Upload) (*Oracle, error) {
	if !f.built {
		return nil, errors.New("frontend: no index built yet")
	}
	items, _, err := f.prepare(uploads, f.rehashed)
	if err != nil {
		return nil, err
	}
	mirror, err := core.NewPlainMirror(f.keys, f.params)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		if err := mirror.Insert(it.ID, it.Meta); err != nil {
			return nil, fmt.Errorf("frontend: oracle replay diverged at %d: %w", it.ID, err)
		}
	}
	o := &Oracle{f: f, mirror: mirror, profiles: make(map[uint64][]float64, len(uploads))}
	for _, u := range uploads {
		o.profiles[u.ID] = u.Profile
	}
	return o, nil
}

// NewDynOracle returns an oracle without a placement mirror, for the
// dynamic scheme: insert-time kicks there depend on live protocol rounds,
// so candidate sets are checked semantically (membership, subset, exact
// distances) rather than slot-exactly. It tracks plaintext profiles for
// ranking checks.
func (f *Frontend) NewDynOracle(uploads []Upload) *Oracle {
	o := &Oracle{f: f, profiles: make(map[uint64][]float64, len(uploads))}
	for _, u := range uploads {
		o.profiles[u.ID] = u.Profile
	}
	return o
}

// PutProfile records a user's plaintext profile (mirroring PutProfiles at
// the cloud).
func (o *Oracle) PutProfile(id uint64, profile []float64) {
	o.mu.Lock()
	o.profiles[id] = profile
	o.mu.Unlock()
}

// RemoveProfile forgets a user (mirroring DeleteProfile at the cloud).
func (o *Oracle) RemoveProfile(id uint64) {
	o.mu.Lock()
	delete(o.profiles, id)
	o.mu.Unlock()
}

// Profile returns the stored plaintext profile for id.
func (o *Oracle) Profile(id uint64) ([]float64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	p, ok := o.profiles[id]
	return p, ok
}

// Candidates predicts the identifiers a SecRec round trip hands the
// ranking stage for target: the mirror's candidates in discovery order,
// restricted to users with a stored profile (the cloud silently skips
// identifiers whose profile is missing).
func (o *Oracle) Candidates(target []float64) []uint64 {
	meta := o.f.family.Hash(target)
	raw := o.mirror.Candidates(meta)
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]uint64, 0, len(raw))
	for _, id := range raw {
		if _, ok := o.profiles[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// Discover is the plaintext reference for Discover / Serving.Discover /
// DiscoverBatch on a healthy deployment: candidates from the mirror,
// exact distances, top-k in candidate order.
func (o *Oracle) Discover(target []float64, k int, excludeID uint64) []Match {
	return o.rankIDs(target, o.Candidates(target), k, excludeID, nil)
}

// DiscoverOwned is Discover restricted to users for whom alive(owner)
// holds — the expected result when only a subset of shards answered.
// alive receives each candidate's identifier.
func (o *Oracle) DiscoverOwned(target []float64, k int, excludeID uint64, alive func(uint64) bool) []Match {
	return o.rankIDs(target, o.Candidates(target), k, excludeID, alive)
}

// RankCandidates ranks an externally obtained candidate list (e.g. the
// ids a dynamic search returned) exactly as the frontend's ranking stage
// does: skip the excluded id, exact distances against stored profiles,
// top-k fed in candidate order. Unknown ids are an error — the encrypted
// stack produced an identifier the oracle never saw.
func (o *Oracle) RankCandidates(target []float64, ids []uint64, k int, excludeID uint64) ([]Match, error) {
	o.mu.Lock()
	for _, id := range ids {
		if _, ok := o.profiles[id]; !ok {
			o.mu.Unlock()
			return nil, fmt.Errorf("frontend: oracle has no profile for candidate %d", id)
		}
	}
	o.mu.Unlock()
	return o.rankIDs(target, ids, k, excludeID, nil), nil
}

func (o *Oracle) rankIDs(target []float64, ids []uint64, k int, excludeID uint64, alive func(uint64) bool) []Match {
	o.mu.Lock()
	defer o.mu.Unlock()
	tk := vec.NewTopK(k)
	for _, id := range ids {
		if excludeID != 0 && id == excludeID {
			continue
		}
		if alive != nil && !alive(id) {
			continue
		}
		p, ok := o.profiles[id]
		if !ok {
			continue
		}
		tk.Offer(id, vec.Distance(target, p))
	}
	scored := tk.Sorted()
	out := make([]Match, len(scored))
	for i, s := range scored {
		out[i] = Match{ID: s.ID, Distance: s.Score}
	}
	return out
}

// Distance returns the exact squared distance between target and id's
// stored profile.
func (o *Oracle) Distance(target []float64, id uint64) (float64, bool) {
	o.mu.Lock()
	p, ok := o.profiles[id]
	o.mu.Unlock()
	if !ok {
		return 0, false
	}
	return vec.Distance(target, p), true
}

// EqualMatches reports whether two rankings are equivalent: same length,
// both ascending by distance, and pairwise identical up to reordering
// within runs of exactly equal distance. Ties are the one place the
// encrypted stack may legitimately order differently from the oracle —
// shard-major merges feed the top-k selector in a different candidate
// order — so equal-distance runs are compared as identifier sets.
func EqualMatches(got, want []Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d matches, want %d (got %v, want %v)", len(got), len(want), got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			return fmt.Errorf("matches not sorted at %d: %v", i, got)
		}
	}
	for i := 0; i < len(want); {
		j := i + 1
		for j < len(want) && want[j].Distance == want[i].Distance {
			j++
		}
		gotIDs := make([]uint64, 0, j-i)
		wantIDs := make([]uint64, 0, j-i)
		for h := i; h < j; h++ {
			if got[h].Distance != want[i].Distance && !(math.IsNaN(got[h].Distance) && math.IsNaN(want[i].Distance)) {
				return fmt.Errorf("match %d distance %v, want %v (got %v, want %v)", h, got[h].Distance, want[i].Distance, got, want)
			}
			gotIDs = append(gotIDs, got[h].ID)
			wantIDs = append(wantIDs, want[h].ID)
		}
		sort.Slice(gotIDs, func(a, b int) bool { return gotIDs[a] < gotIDs[b] })
		sort.Slice(wantIDs, func(a, b int) bool { return wantIDs[a] < wantIDs[b] })
		for h := range gotIDs {
			if gotIDs[h] != wantIDs[h] {
				return fmt.Errorf("tied run [%d,%d): ids %v, want %v", i, j, gotIDs, wantIDs)
			}
		}
		i = j
	}
	return nil
}
