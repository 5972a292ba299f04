package frontend

import (
	"errors"
	"fmt"

	"pisd/internal/core"
	"pisd/internal/lsh"
)

// Shard is one cloud shard's installable state: the partitioned secure
// index plus the encrypted profiles of the users the shard owns.
type Shard struct {
	Index       *core.Index
	EncProfiles map[uint64][]byte
}

// DynShard is one cloud shard's dynamic state: the shard's updatable
// index, the front-end client holding its round keys, and the encrypted
// profiles of the users the shard owns. The Client routes this shard's
// secure insert/delete/search rounds; clients of different shards are
// independent, so cross-shard fan-out stays parallel.
type DynShard struct {
	Index       *core.DynIndex
	Client      *core.DynClient
	EncProfiles map[uint64][]byte
}

// BuildShardedIndex implements ConSecIdx for an S-shard cloud tier: it
// runs the single global cuckoo placement of core.BuildPartitioned and
// derives one secure index per shard, each a projection of the single-node
// index onto the users owner assigns to it, plus each shard's encrypted
// profiles. The per-shard encryptions run in parallel. A nil owner means
// core.DefaultOwner (id mod shards). When cuckoo insertion fails it
// performs the rehash() step of Algorithm 1 — fresh LSH parameters,
// recomputed metadata, full rebuild — up to MaxRehash times.
//
// Because placement, parameters and keys are global, one trapdoor serves
// every shard and the union of the shards' SecRec results equals the
// single-node result exactly.
func (f *Frontend) BuildShardedIndex(uploads []Upload, shards int, owner func(uint64) int) ([]Shard, error) {
	if shards < 1 {
		return nil, fmt.Errorf("frontend: shard count must be >= 1, got %d", shards)
	}
	if owner == nil {
		owner = core.DefaultOwner(shards)
	}
	items, p, err := f.prepare(uploads, false)
	if err != nil {
		return nil, err
	}
	idxs, err := core.BuildPartitioned(f.keys, items, p, shards, owner)
	attempt := 0
	for ; err != nil; attempt++ {
		if !errors.Is(err, core.ErrNeedRehash) || attempt >= f.cfg.MaxRehash {
			return nil, fmt.Errorf("frontend: build index: %w", err)
		}
		family, rerr := f.family.Rehash(f.cfg.LSH.Seed + int64(attempt) + 1)
		if rerr != nil {
			return nil, fmt.Errorf("frontend: rehash: %w", rerr)
		}
		f.family = family
		if items, p, err = f.prepare(uploads, true); err == nil {
			idxs, err = core.BuildPartitioned(f.keys, items, p, shards, owner)
		}
	}
	f.params, f.built, f.rehashed = p, true, attempt > 0
	profiles, err := f.encryptByOwner(uploads, shards, owner)
	if err != nil {
		return nil, err
	}
	out := make([]Shard, shards)
	for s := range out {
		out[s] = Shard{Index: idxs[s], EncProfiles: profiles[s]}
	}
	return out, nil
}

// BuildShardedDynamicIndex builds one updatable index per shard over the
// uploads each shard owns. Every shard's index shares the global
// parameters sized for the full upload set, so bucket references computed
// by any shard's client stay valid as users churn; shard builds run in
// parallel. A nil owner means core.DefaultOwner (id mod shards).
func (f *Frontend) BuildShardedDynamicIndex(uploads []Upload, shards int, owner func(uint64) int) ([]DynShard, error) {
	if shards < 1 {
		return nil, fmt.Errorf("frontend: shard count must be >= 1, got %d", shards)
	}
	if owner == nil {
		owner = core.DefaultOwner(shards)
	}
	items, p, err := f.prepare(uploads, false)
	if err != nil {
		return nil, err
	}
	parts := make([][]core.Item, shards)
	for _, it := range items {
		s := owner(it.ID)
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("frontend: owner(%d) = %d out of range [0,%d)", it.ID, s, shards)
		}
		parts[s] = append(parts[s], it)
	}
	out := make([]DynShard, shards)
	for s, err := range perShard(shards, func(s int) (err error) {
		out[s].Index, out[s].Client, err = core.BuildDynamic(f.keys, parts[s], p)
		return err
	}) {
		if err != nil {
			return nil, fmt.Errorf("frontend: build dynamic shard %d: %w", s, err)
		}
	}
	f.params, f.built, f.rehashed = p, true, false
	profiles, err := f.encryptByOwner(uploads, shards, owner)
	if err != nil {
		return nil, err
	}
	for s := range out {
		out[s].EncProfiles = profiles[s]
	}
	return out, nil
}

// encryptByOwner produces {S*} and files each ciphertext under its user's
// shard: profiles[s] is what shard s stores. The build already checked
// every owner(id) against the shard range.
func (f *Frontend) encryptByOwner(uploads []Upload, shards int, owner func(uint64) int) ([]map[uint64][]byte, error) {
	cts, err := f.encryptProfileSlice(uploads)
	if err != nil {
		return nil, err
	}
	profiles := make([]map[uint64][]byte, shards)
	for s := range profiles {
		profiles[s] = make(map[uint64][]byte, len(uploads)/shards)
	}
	for i, u := range uploads {
		profiles[owner(u.ID)][u.ID] = cts[i]
	}
	return profiles, nil
}

// DynNode is the per-shard cloud surface sharded dynamic operations
// drive: the bucket store plus the encrypted-profile store. shard.Node
// implementations satisfy it.
type DynNode interface {
	core.BucketStore
	ProfileFetcher
	PutProfiles(profiles map[uint64][]byte) error
	DeleteProfile(id uint64) error
}

// dynUpdate is one mutation's pure preparation: the owning shard, the
// user's LSH metadata and, for an insert, the encrypted profile. It is
// computed once and needs no lock, so a serving path can prepare an update
// before it serializes the protocol rounds.
type dynUpdate struct {
	id    uint64
	shard int
	meta  lsh.Metadata
	ct    []byte
}

// prepareUpdate routes id to its owning shard and hashes its profile.
func (s *DynServing) prepareUpdate(id uint64, profile []float64) (dynUpdate, error) {
	sh, err := s.routeShard(id)
	if err != nil {
		return dynUpdate{}, err
	}
	u := dynUpdate{id: id, shard: sh}
	u.meta, err = s.f.hash(profile)
	return u, err
}

// prepareInsert is prepareUpdate plus the profile's encryption.
func (s *DynServing) prepareInsert(id uint64, profile []float64) (dynUpdate, error) {
	u, err := s.prepareUpdate(id, profile)
	if err != nil {
		return dynUpdate{}, err
	}
	if u.ct, err = s.f.EncryptProfile(profile); err != nil {
		return dynUpdate{}, fmt.Errorf("frontend: encrypt profile %d: %w", id, err)
	}
	return u, nil
}

// dynInsert runs a prepared insertion's rounds and profile upload on its
// owning shard, through the cache-invalidation hook. sent reports whether
// the upload, which names the id in clear, was issued: a failure before it
// left the id's stored ciphertext as it was.
func (s *DynServing) dynInsert(u dynUpdate) (sent bool, err error) {
	sh := u.shard
	if err := s.clients[sh].Insert(s.writes[sh], u.id, u.meta); err != nil {
		return false, fmt.Errorf("frontend: insert %d at shard %d: %w", u.id, sh, err)
	}
	if err := s.writes[sh].PutProfiles(map[uint64][]byte{u.id: u.ct}); err != nil {
		return true, fmt.Errorf("frontend: upload profile %d to shard %d: %w", u.id, sh, err)
	}
	return true, nil
}

// dynDelete runs a prepared deletion's rounds and profile removal on its
// owning shard, through the cache-invalidation hook. sent reports whether
// the removal, which names the id in clear, was issued: a failure before it
// left the id's stored ciphertext as it was.
func (s *DynServing) dynDelete(u dynUpdate) (sent bool, err error) {
	sh := u.shard
	if err := s.clients[sh].Delete(s.writes[sh], u.id, u.meta); err != nil {
		return false, fmt.Errorf("frontend: delete %d at shard %d: %w", u.id, sh, err)
	}
	if err := s.writes[sh].DeleteProfile(u.id); err != nil {
		return true, fmt.Errorf("frontend: remove profile %d at shard %d: %w", u.id, sh, err)
	}
	return true, nil
}

// routeShard resolves the shard owning id. The shard/node pairing was
// checked once, by NewDynServing; only the owner's range is per id.
func (s *DynServing) routeShard(id uint64) (int, error) {
	sh := s.owner(id)
	if sh < 0 || sh >= len(s.clients) {
		return 0, fmt.Errorf("frontend: owner(%d) = %d out of range [0,%d)", id, sh, len(s.clients))
	}
	return sh, nil
}
