// Package frontend implements the trusted on-premise service front end SF
// of the paper's architecture (Fig. 1): it owns the secret keys, shares the
// LSH parameters with user clients, builds the secure index over the
// uploaded image profiles, issues discovery trapdoors, and decrypts and
// distance-ranks the cloud's encrypted matches into recommendations.
package frontend

import (
	"errors"
	"fmt"

	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/lsh"
)

// Config parameterizes a front end.
type Config struct {
	// LSH defines the shared hash family h (pre-shared with users).
	LSH lsh.Params
	// LoadFactor is the index load factor τ ∈ (0, 1].
	LoadFactor float64
	// ProbeRange is d, the random probe range.
	ProbeRange int
	// MaxLoop bounds cuckoo kicks per insertion.
	MaxLoop int
	// MaxRehash bounds full index rebuilds with fresh LSH parameters.
	MaxRehash int
	// Seed drives non-cryptographic randomness (kick choices).
	Seed int64
	// KeySeed, when non-empty, derives keys deterministically (tests and
	// reproducible benchmarks only); empty means fresh random keys.
	KeySeed string
	// CompactProfiles encrypts profiles with float32 entries, halving S*
	// to the paper's ~4 KB per 1000-dim profile. Ranking precision is
	// unaffected (profiles are unit-norm histograms).
	CompactProfiles bool
}

// DefaultConfig returns the paper's default operating point: l = 10
// tables, d = 4 probes, τ = 0.8.
func DefaultConfig(dim int) Config {
	return Config{
		LSH:        lsh.Params{Dim: dim, Tables: 10, Atoms: 4, Width: 0.7, Seed: 1},
		LoadFactor: 0.8,
		ProbeRange: 4,
		MaxLoop:    500,
		MaxRehash:  3,
		Seed:       1,
	}
}

// UntunedConfigForPopulation returns DefaultConfig scaled to an expected
// population size on the atom axis only: the per-table LSH atom count
// grows logarithmically with n. Each atom multiplies the effective hash
// codomain, and with a codomain fixed while n grows, whole swaths of the
// population share per-table hash values, their cuckoo candidate windows
// coincide, and the placement saturates long before the nominal τ = 0.8
// load (measured: at n = 100k with 4 atoms a quarter of all items
// overflow; 5 atoms place the same population with zero overflow). This
// is the standard E2LSH k ≈ log n scaling, applied at the paper's
// operating point. It is the pre-autotune scaling rule, kept as the
// reference the autotuner (internal/autotune) sweeps against; production
// entry points use ConfigForPopulation, which applies the measured tuned
// operating points on top of it.
func UntunedConfigForPopulation(dim, users int) Config {
	cfg := DefaultConfig(dim)
	cfg.LSH.Atoms = autoAtoms(users)
	return cfg
}

// ConfigForPopulation returns the operating point production derives from
// the public population size n alone (build and attach must agree, so it
// is a pure function of n): UntunedConfigForPopulation with the
// autotuner's measured tuned parameters applied for population tiers the
// frontier has been measured at. See tunedPoints.
func ConfigForPopulation(dim, users int) Config {
	cfg := UntunedConfigForPopulation(dim, users)
	for _, tp := range tunedPoints {
		if users <= tp.maxUsers {
			cfg.LSH.Tables = tp.tables
			cfg.LSH.Atoms = tp.atoms
			cfg.LSH.Width = tp.width
			cfg.ProbeRange = tp.probeRange
			break
		}
	}
	return cfg
}

// tunedOperating is one autotuner-measured operating point: the cheapest
// config whose secure-path recall@10 stays within 1% of the untuned
// reference for populations up to maxUsers.
type tunedOperating struct {
	maxUsers   int
	tables     int
	atoms      int
	width      float64
	probeRange int
}

// tunedPoints is the measured recall-vs-cost frontier selection, produced
// by `pisd-autotune -users <tier ceiling> -seed 1 -grid default` (tables in
// EXPERIMENTS.md "Recall/cost autotuning"; BENCH_PR8.json). Populations
// beyond the last measured tier fall back to the untuned rule:
// extrapolating a tuned l below the paper's default to unmeasured regimes
// risks silent recall loss, while the untuned point is validated up to 1M
// by the scale smoke. Parameters here are functions of the public n only —
// see the leakage argument in DESIGN.md §16.
// Each tier's parameters were measured at the tier ceiling; for smaller
// populations the same config only gets sparser per bucket, so applying a
// tier downward never risks the placement that was verified at its
// ceiling.
var tunedPoints = []tunedOperating{
	// n=10k winner: budget 30 vs the untuned 50 (−40%), measured secure
	// recall@10 0.0563 vs 0.0281 and 2.3× the reference qps.
	{maxUsers: 10_000, tables: 6, atoms: 5, width: 1.0, probeRange: 4},
	// n=100k winner: budget 35 vs the untuned 50 (−30%), measured secure
	// recall@10 0.0234 vs 0.0125 and 7.4× the reference qps.
	{maxUsers: 100_000, tables: 7, atoms: 6, width: 1.0, probeRange: 4},
}

// autoAtoms is 4 up to 20k users, plus one atom per factor of 5 beyond
// (4 at 20k, 5 at 100k, 6 at 500k, 7 at 1M), matching the measured
// placement-saturation thresholds with one factor of headroom.
func autoAtoms(users int) int {
	a := 4
	for lim := 20000; users > lim; lim *= 5 {
		a++
	}
	return a
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.LSH.Validate(); err != nil {
		return err
	}
	switch {
	case c.LoadFactor <= 0 || c.LoadFactor > 1:
		return fmt.Errorf("frontend: load factor %v out of (0,1]", c.LoadFactor)
	case c.ProbeRange < 0:
		return fmt.Errorf("frontend: probe range must be >= 0, got %d", c.ProbeRange)
	case c.MaxLoop < 1:
		return fmt.Errorf("frontend: max loop must be >= 1, got %d", c.MaxLoop)
	case c.MaxRehash < 0:
		return fmt.Errorf("frontend: max rehash must be >= 0, got %d", c.MaxRehash)
	}
	return nil
}

// Upload is one user's contribution to Service frontend initialization:
// the small image profile S and metadata V sent to SF (service flow
// step 2). Meta may be nil, in which case SF computes it from the shared
// LSH parameters (useful when clients are trusted thin).
type Upload struct {
	ID      uint64
	Profile []float64
	Meta    lsh.Metadata
}

// Match is one discovery result: a recommended user and their profile
// distance to the target.
type Match struct {
	ID       uint64
	Distance float64
}

// Frontend is the trusted service front end.
type Frontend struct {
	cfg    Config
	keys   *crypt.KeySet
	family *lsh.Family
	params core.Params
	built  bool
	// rehashed records whether the most recent successful build went
	// through the rehash() step, i.e. whether upload metadata supplied by
	// clients was recomputed under fresh LSH parameters. BuildOracle needs
	// it to replay the build's placement exactly.
	rehashed bool
}

// New creates a front end, generating keys via Gen(1^λ) and instantiating
// the shared LSH family.
func New(cfg Config) (*Frontend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var keys *crypt.KeySet
	var err error
	if cfg.KeySeed != "" {
		keys, err = crypt.GenDeterministic(cfg.KeySeed, cfg.LSH.Tables)
	} else {
		keys, err = crypt.Gen(cfg.LSH.Tables)
	}
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	family, err := lsh.New(cfg.LSH)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	return &Frontend{cfg: cfg, keys: keys, family: family}, nil
}

// SharedLSHParams returns the LSH parameter set h that SF pre-shares with
// every user client for ComputeLSH.
func (f *Frontend) SharedLSHParams() lsh.Params { return f.family.Params() }

// ComputeMeta hashes a profile with the current shared family — what a
// user client computes as V = ComputeLSH(S, h).
func (f *Frontend) ComputeMeta(profile []float64) lsh.Metadata {
	return f.family.Hash(profile)
}

// IndexParams returns the parameters of the most recently built index.
func (f *Frontend) IndexParams() (core.Params, error) {
	if !f.built {
		return core.Params{}, errors.New("frontend: no index built yet")
	}
	return f.params, nil
}

// EncryptProfile produces S* = Enc(ks, S), honouring CompactProfiles.
func (f *Frontend) EncryptProfile(profile []float64) ([]byte, error) {
	if f.cfg.CompactProfiles {
		return crypt.EncProfileCompact(f.keys.KS, profile)
	}
	return crypt.EncProfile(f.keys.KS, profile)
}

// DecryptProfile recovers S from S*.
func (f *Frontend) DecryptProfile(ct []byte) ([]float64, error) {
	return crypt.DecProfile(f.keys.KS, ct)
}

// prepare derives index params and items for the given uploads, hashing
// profiles whose metadata is absent or stale (after a rehash). Every
// profile's dimension is checked, supplied metadata or not: a wrong-length
// profile would be stored as a ciphertext of a different length.
func (f *Frontend) prepare(uploads []Upload, forceRehash bool) ([]core.Item, core.Params, error) {
	items := make([]core.Item, len(uploads))
	for i, u := range uploads {
		meta := u.Meta
		if meta == nil || forceRehash || len(u.Profile) != f.cfg.LSH.Dim {
			var err error
			if meta, err = f.hash(u.Profile); err != nil {
				return nil, core.Params{}, fmt.Errorf("frontend: upload %d: %w", u.ID, err)
			}
		}
		items[i] = core.Item{ID: u.ID, Meta: meta}
	}
	return items, f.indexParams(len(uploads), 0), nil
}

// indexParams derives the parameters of an index over n uploads with the
// given stash: the one formula behind monolithic, sharded and streamed
// builds, so a trapdoor addresses every one of them alike.
func (f *Frontend) indexParams(n, stash int) core.Params {
	return core.Params{
		Tables:     f.cfg.LSH.Tables,
		Capacity:   core.CapacityFor(n, f.cfg.LoadFactor),
		ProbeRange: f.cfg.ProbeRange,
		MaxLoop:    f.cfg.MaxLoop,
		Seed:       f.cfg.Seed,
		StashSize:  stash,
	}
}

// errProfileDim reports a profile whose length is not the configured
// dimension.
var errProfileDim = errors.New("frontend: profile dimension mismatch")

// hash is V = ComputeLSH(S, h) at the SF boundary: it refuses a profile of
// the wrong dimension, which the LSH projections would otherwise silently
// truncate or ignore the tail of.
func (f *Frontend) hash(profile []float64) (lsh.Metadata, error) {
	if len(profile) != f.cfg.LSH.Dim {
		return nil, fmt.Errorf("%w: got %d, want %d", errProfileDim, len(profile), f.cfg.LSH.Dim)
	}
	return f.family.Hash(profile), nil
}

// BuildIndex implements ConSecIdx over the uploads: it builds the static
// secure index I and the encrypted profile set {S*}. When cuckoo insertion
// fails it performs the rehash() step of Algorithm 1 — fresh LSH
// parameters, recomputed metadata, full rebuild — up to MaxRehash times.
// It is the 1-shard case of BuildShardedIndex.
func (f *Frontend) BuildIndex(uploads []Upload) (*core.Index, map[uint64][]byte, error) {
	shards, err := f.BuildShardedIndex(uploads, 1, nil)
	if err != nil {
		return nil, nil, err
	}
	return shards[0].Index, shards[0].EncProfiles, nil
}

// encryptProfileSlice produces {S*} aligned with uploads; each encryption
// is independent (fresh IV, shared key), so the batch fans out across CPUs.
func (f *Frontend) encryptProfileSlice(uploads []Upload) ([][]byte, error) {
	cts := make([][]byte, len(uploads))
	err := parallelFor(len(uploads), func(i int) error {
		ct, err := f.EncryptProfile(uploads[i].Profile)
		if err != nil {
			return fmt.Errorf("frontend: encrypt profile %d: %w", uploads[i].ID, err)
		}
		cts[i] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cts, nil
}

// BuildDynamicIndex builds the updatable index variant plus its front-end
// client (Sec. III-D): the 1-shard case of BuildShardedDynamicIndex.
func (f *Frontend) BuildDynamicIndex(uploads []Upload) (*core.DynIndex, *core.DynClient, map[uint64][]byte, error) {
	shards, err := f.BuildShardedDynamicIndex(uploads, 1, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return shards[0].Index, shards[0].Client, shards[0].EncProfiles, nil
}

// Trapdoor issues the secure discovery trapdoor t = GenTpdr(K, V) for a
// target profile.
func (f *Frontend) Trapdoor(profile []float64) (*core.Trapdoor, error) {
	meta, err := f.hash(profile)
	if err != nil {
		return nil, err
	}
	return f.TrapdoorForMeta(meta)
}

// TrapdoorForMeta issues a trapdoor from precomputed metadata.
func (f *Frontend) TrapdoorForMeta(meta lsh.Metadata) (*core.Trapdoor, error) {
	if !f.built {
		return nil, errors.New("frontend: no index built yet")
	}
	return core.GenTpdr(f.keys, meta, f.params)
}

// Trapdoors issues one discovery trapdoor per target profile, hashing and
// PRF evaluation fanned out across CPUs (lsh.Family.Hash is stateless and
// the PRF pools its scratch, so the fan-out is safe). Trapdoor generation
// is deterministic, so the result is identical to calling Trapdoor per
// profile.
func (f *Frontend) Trapdoors(profiles [][]float64) ([]*core.Trapdoor, error) {
	tds := make([]*core.Trapdoor, len(profiles))
	err := parallelFor(len(profiles), func(i int) (err error) {
		if tds[i], err = f.Trapdoor(profiles[i]); err != nil {
			err = fmt.Errorf("frontend: trapdoor %d: %w", i, err)
		}
		return err
	})
	return tds, err
}

// ProfileFetcher is the cloud surface returning encrypted profiles by id,
// aligned with the request; an identifier the cloud does not hold answers
// as an empty entry (present ciphertexts are never empty).
type ProfileFetcher interface {
	FetchProfiles(ids []uint64) ([][]byte, error)
}

// ExportKeys serializes the front end's secret key material for secure
// storage. The blob contains every key; protect it like the keys
// themselves. Restore with ConfigWithKeys + NewWithKeys.
func (f *Frontend) ExportKeys() ([]byte, error) {
	return f.keys.MarshalBinary()
}

// NewWithKeys creates a front end from previously exported key material
// instead of generating fresh keys: the restart path. The key blob's table
// count must match cfg.LSH.Tables (trapdoors and the persisted index are
// bound to both).
func NewWithKeys(cfg Config, keyBlob []byte) (*Frontend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	keys := &crypt.KeySet{}
	if err := keys.UnmarshalBinary(keyBlob); err != nil {
		return nil, fmt.Errorf("frontend: restore keys: %w", err)
	}
	if keys.NumTables() != cfg.LSH.Tables {
		return nil, fmt.Errorf("frontend: restored keys cover %d tables, config has %d",
			keys.NumTables(), cfg.LSH.Tables)
	}
	family, err := lsh.New(cfg.LSH)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	return &Frontend{cfg: cfg, keys: keys, family: family}, nil
}

// RestoreIndexParams marks the front end as serving an existing index with
// the given parameters (e.g. after both SF and CS restarted and the index
// was reloaded at the cloud), enabling trapdoor issue without a rebuild.
func (f *Frontend) RestoreIndexParams(p core.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Tables != f.cfg.LSH.Tables {
		return fmt.Errorf("frontend: index covers %d tables, config has %d", p.Tables, f.cfg.LSH.Tables)
	}
	f.params, f.built = p, true
	return nil
}
