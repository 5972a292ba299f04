// Package autotune searches the LSH parameter space — (l tables, k atoms,
// quantization width W, probe range d) — for operating points that hold
// recall while shrinking the scheme's entire cost model, l·(d+1): trapdoor
// size and generation time, per-query bucket bandwidth, and SecRec work all
// scale linearly with it (the paper fixes l = 10..100, d = 4 by hand).
//
// The tuner runs in two phases:
//
//  1. Sweep. Candidate configs are evaluated against the brute-force
//     oracle (baseline.BruteForceTopK) on a seeded synthetic population,
//     using plain-LSH candidate retrieval (baseline.PlainLSH semantics)
//     as the recall proxy — the paper's own "baseline approach", which
//     upper-bounds the secure index's accuracy. The sweep runs in
//     deterministic cost-ordered waves of a fixed width, with configs
//     pruned before evaluation when an already-evaluated config
//     dominates them on both axes (≥ recall by parameter monotonicity —
//     more tables, wider quantization, fewer atoms never lose recall —
//     and ≤ cost). For speed the sweep evaluates atoms from one master
//     set of Gaussian projections (an E2LSH family is a projection
//     matrix plus uniform offsets; narrowing the width or truncating
//     tables/atoms of the master family yields exactly the family a
//     smaller parameterization would draw), so projecting the population
//     once covers the whole grid.
//
//  2. Measure. Pareto-frontier survivors (and the untuned reference) are
//     rebuilt on the real stack — frontend.BuildIndex → cloud.Server →
//     Discover — and measured in real units: secure-path recall@k,
//     index bytes, trapdoor µs, buckets fetched per query (read from the
//     live internal/obs counters that also enforce the leakage
//     invariant), and end-to-end qps. The winner is chosen on measured
//     secure recall, so a proxy-optimistic config cannot win.
//
// Every candidate is one family over the whole population — the only shape
// frontend.ConfigForPopulation ships. Everything is reproducible from
// Config.Seed alone, independent of the core count; failing configs carry
// a one-line repro.
package autotune

import (
	"fmt"
	"sort"

	"pisd/internal/dataset"
	"pisd/internal/frontend"
)

// Candidate is one point of the parameter grid.
type Candidate struct {
	// Tables is l, the family's table count.
	Tables int `json:"l"`
	// Atoms is k, the atomic hash count per table.
	Atoms int `json:"atoms"`
	// Width is the atom quantization width W.
	Width float64 `json:"width"`
	// ProbeRange is d, the random probe range of the secure index.
	ProbeRange int `json:"probe_range"`
}

// Validate reports whether the candidate is usable.
func (c Candidate) Validate() error {
	switch {
	case c.Tables < 1:
		return fmt.Errorf("autotune: tables must be >= 1, got %d", c.Tables)
	case c.Atoms < 1:
		return fmt.Errorf("autotune: atoms must be >= 1, got %d", c.Atoms)
	case c.Width <= 0:
		return fmt.Errorf("autotune: width must be > 0, got %v", c.Width)
	case c.ProbeRange < 0:
		return fmt.Errorf("autotune: probe range must be >= 0, got %d", c.ProbeRange)
	}
	return nil
}

// Budget is the candidate's bucket cost model l·(d+1): the buckets a query
// addresses, excluding any stash (the stash is a population-size function,
// identical across candidates).
func (c Candidate) Budget() int {
	return c.Tables * (c.ProbeRange + 1)
}

// String renders the candidate compactly ("l=7 k=5 W=0.85 d=4").
func (c Candidate) String() string {
	return fmt.Sprintf("l=%d k=%d W=%g d=%d", c.Tables, c.Atoms, c.Width, c.ProbeRange)
}

// less orders candidates deterministically: cheapest budget first, then by
// parameters. Every sweep, frontier and winner decision sorts with it, so
// a run is a pure function of (Config, grid).
func (c Candidate) less(o Candidate) bool {
	if c.Budget() != o.Budget() {
		return c.Budget() < o.Budget()
	}
	if c.Tables != o.Tables {
		return c.Tables < o.Tables
	}
	if c.Atoms != o.Atoms {
		return c.Atoms < o.Atoms
	}
	if c.Width != o.Width {
		return c.Width < o.Width
	}
	return c.ProbeRange < o.ProbeRange
}

// Measurement is a candidate's real-unit cost/quality readout from the
// measure phase: the full secure stack, not the plain-LSH proxy.
type Measurement struct {
	// Recall is recall@k through frontend.Discover over the real index.
	Recall float64 `json:"recall"`
	// Accuracy is the paper's distance-ratio metric on the same results.
	Accuracy float64 `json:"accuracy"`
	// BucketsPerQuery is the measured cloud.buckets_unmasked per query
	// (= Budget() + stash when the invariant holds; reading it from the
	// live counters keeps the tuner honest).
	BucketsPerQuery float64 `json:"buckets_per_query"`
	// TrapdoorUS is the mean per-query trapdoor generation cost in µs.
	TrapdoorUS float64 `json:"trapdoor_us"`
	// IndexBytes is the encrypted index footprint.
	IndexBytes int64 `json:"index_bytes"`
	// QPS is serial end-to-end Discover throughput.
	QPS float64 `json:"qps"`
	// BuildMS is the index build time in milliseconds.
	BuildMS float64 `json:"build_ms"`
}

// Result is one evaluated (or pruned) candidate.
type Result struct {
	Candidate
	// Budget repeats Candidate.Budget() for JSON consumers.
	Budget int `json:"budget"`
	// Recall is the sweep's plain-LSH proxy recall@k (mean over queries).
	Recall float64 `json:"recall"`
	// Accuracy is the paper's distance-ratio metric on the proxy results.
	Accuracy float64 `json:"accuracy"`
	// Candidates is the mean plain-LSH candidate-set size per query.
	Candidates float64 `json:"candidates"`
	// Feasible reports whether the candidate's cuckoo placement succeeded
	// over the sweep population at the production load factor. Wide
	// quantization widths concentrate users on shared per-table hashes
	// until no placement exists; such configs can look excellent on proxy
	// recall yet cannot be built. Only meaningful on evaluated (non-pruned)
	// results; the frontier carries feasible points only.
	Feasible bool `json:"feasible"`
	// Pruned marks candidates skipped because PrunedBy dominated them.
	Pruned   bool   `json:"pruned,omitempty"`
	PrunedBy string `json:"pruned_by,omitempty"`
	// Measured carries the real-unit readout for frontier survivors.
	Measured *Measurement `json:"measured,omitempty"`
	// Err and Repro record a failed config (e.g. cuckoo placement
	// infeasible on the real stack) and its one-line reproduction.
	Err   string `json:"err,omitempty"`
	Repro string `json:"repro,omitempty"`
}

// Config parameterizes a tuner run. The zero values of Dim, K and Queries
// are filled by Run; Users and Grid are required.
type Config struct {
	// Users is n, the synthetic population size to tune for.
	Users int `json:"users"`
	// Dim is the profile dimensionality (default 1000, the paper's
	// vocabulary size).
	Dim int `json:"dim"`
	// K is the recall@k cutoff (default 10).
	K int `json:"k"`
	// Queries is the evaluation query count (default 64).
	Queries int `json:"queries"`
	// Seed makes the whole run — dataset, families, queries, sweep order
	// — reproducible.
	Seed int64 `json:"seed"`
	// MaxRecallLoss is the recall the winner may give up vs the untuned
	// reference, in absolute recall points (0 allows no loss; the CLI
	// default is 0.01 = 1%).
	MaxRecallLoss float64 `json:"max_recall_loss"`
	// Grid is the candidate set to sweep.
	Grid []Candidate `json:"grid"`
	// Measure rebuilds the reference and every frontier survivor on the
	// real secure stack and picks the winner on measured recall.
	Measure bool `json:"measure"`
	// Logf, when set, receives one progress line per phase/config.
	Logf func(format string, args ...any) `json:"-"`
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// withDefaults fills optional fields and validates the rest.
func (c Config) withDefaults() (Config, error) {
	if c.Users < 1 {
		return c, fmt.Errorf("autotune: users must be >= 1, got %d", c.Users)
	}
	if len(c.Grid) == 0 {
		return c, fmt.Errorf("autotune: empty candidate grid")
	}
	if c.Dim == 0 {
		c.Dim = 1000
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.Queries == 0 {
		c.Queries = 64
	}
	if c.MaxRecallLoss < 0 {
		return c, fmt.Errorf("autotune: max recall loss must be >= 0, got %v", c.MaxRecallLoss)
	}
	for _, cand := range c.Grid {
		if err := cand.Validate(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// Reference returns the untuned operating point the sweep compares
// against: the paper's defaults with only the atom count grown with n
// (frontend.UntunedConfigForPopulation).
func Reference(users int) Candidate {
	ref := frontend.UntunedConfigForPopulation(1, users)
	return Candidate{
		Tables:     ref.LSH.Tables,
		Atoms:      ref.LSH.Atoms,
		Width:      ref.LSH.Width,
		ProbeRange: ref.ProbeRange,
	}
}

// DefaultGrid is the standard sweep around the reference point: table
// counts from 4 to the paper's 10, the population-scaled atom count and
// one more, and three quantization widths.
func DefaultGrid(users int) []Candidate {
	ref := Reference(users)
	var grid []Candidate
	for _, l := range []int{4, 5, 6, 7, 8, ref.Tables} {
		for _, da := range []int{0, 1} {
			for _, w := range []float64{ref.Width, 0.85, 1.0} {
				grid = append(grid, Candidate{
					Tables:     l,
					Atoms:      ref.Atoms + da,
					Width:      w,
					ProbeRange: ref.ProbeRange,
				})
			}
		}
	}
	return dedupeGrid(grid)
}

// TinyGrid is the CI smoke grid: a handful of configs spanning the axes,
// evaluable in seconds at a few thousand users.
func TinyGrid(users int) []Candidate {
	ref := Reference(users)
	return dedupeGrid([]Candidate{
		ref,
		{Tables: 5, Atoms: ref.Atoms, Width: ref.Width, ProbeRange: ref.ProbeRange},
		{Tables: 6, Atoms: ref.Atoms, Width: 1.0, ProbeRange: ref.ProbeRange},
		{Tables: 7, Atoms: ref.Atoms, Width: 0.85, ProbeRange: ref.ProbeRange},
		{Tables: 10, Atoms: ref.Atoms + 2, Width: 0.4, ProbeRange: ref.ProbeRange},
	})
}

// dedupeGrid drops duplicate candidates and sorts deterministically.
func dedupeGrid(grid []Candidate) []Candidate {
	seen := make(map[Candidate]struct{}, len(grid))
	out := grid[:0]
	for _, c := range grid {
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Repro renders the one-line reproduction of a candidate's evaluation
// under cfg, printed verbatim when a config fails.
func Repro(cfg Config, c Candidate) string {
	return fmt.Sprintf("repro: go run ./cmd/pisd-autotune -users %d -dim %d -k %d -queries %d -seed %d -grid %q",
		cfg.Users, cfg.Dim, cfg.K, cfg.Queries, cfg.Seed,
		fmt.Sprintf("l=%d,atoms=%d,width=%g,d=%d", c.Tables, c.Atoms, c.Width, c.ProbeRange))
}

// tuneDataset derives the synthetic population config for a run: the
// experiments' default profile model with the population-scaled topic
// count, everything keyed to cfg.Seed.
func tuneDataset(cfg Config) dataset.Config {
	dc := dataset.DefaultConfig(cfg.Users)
	dc.Dim = cfg.Dim
	dc.Topics = dataset.AutoTopics(cfg.Users)
	dc.Seed = cfg.Seed
	// Smoke runs tune at reduced dimensionality; keep the topic model
	// valid (and comparably sparse) when dim drops below the default
	// 80-word topics.
	if dc.ActiveWords > dc.Dim/2 {
		dc.ActiveWords = dc.Dim/2 + 1
	}
	return dc
}
