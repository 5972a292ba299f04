package autotune

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"pisd/internal/baseline"
	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/dataset"
	"pisd/internal/lsh"
	"pisd/internal/vec"
)

// Report is a full tuner run: every grid point, the Pareto frontier, and
// the selected winner, reproducible from Config alone.
type Report struct {
	Config Config `json:"config"`
	// Reference is the untuned operating point everything compares to.
	Reference Result `json:"reference"`
	// Results holds one entry per grid candidate, in deterministic
	// budget order, including pruned and failed ones.
	Results []Result `json:"results"`
	// Frontier is the recall-vs-cost Pareto skyline (budget ascending,
	// recall strictly increasing), drawn from Results plus Reference.
	Frontier []Result `json:"frontier"`
	// Winner is the cheapest config within MaxRecallLoss of the
	// reference recall — on measured secure recall when Measure was set,
	// on the sweep proxy otherwise. Nil when nothing qualified.
	Winner *Result `json:"winner,omitempty"`
	// BudgetReduction is 1 − Winner.Budget/Reference.Budget.
	BudgetReduction float64 `json:"budget_reduction"`
	// Evaluated and Pruned count sweep work for observability.
	Evaluated int `json:"evaluated"`
	Pruned    int `json:"pruned"`
}

// Run executes the sweep (and, when cfg.Measure is set, the real-stack
// measurement of the reference and frontier) and returns the report.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	grid := dedupeGrid(append([]Candidate(nil), cfg.Grid...))
	env, err := newSweepEnv(cfg, grid)
	if err != nil {
		return nil, err
	}

	ref := Reference(cfg.Users)
	cfg.logf("autotune: n=%d dim=%d k=%d queries=%d seed=%d grid=%d reference=%s (budget %d)",
		cfg.Users, cfg.Dim, cfg.K, cfg.Queries, cfg.Seed, len(grid), ref, ref.Budget())
	refResult := env.evaluate(ref)
	cfg.logf("autotune: reference recall=%.4f accuracy=%.4f candidates=%.1f",
		refResult.Recall, refResult.Accuracy, refResult.Candidates)

	rep := &Report{Config: cfg, Reference: refResult}
	rep.Results = env.sweep(cfg, grid, &refResult, rep)
	rep.Frontier = frontier(rep.Results, refResult)
	infeasible := 0
	for _, r := range rep.Results {
		if !r.Pruned && r.Err == "" && !r.Feasible {
			infeasible++
		}
	}
	if infeasible > 0 {
		cfg.logf("autotune: %d configs placement-infeasible at n=%d (excluded from frontier)",
			infeasible, cfg.Users)
	}

	if cfg.Measure {
		if err := measureFrontier(env, cfg, rep); err != nil {
			return nil, err
		}
		pickWinnerMeasured(cfg, rep)
		if rep.Winner == nil {
			if err := measureFallback(env, cfg, rep); err != nil {
				return nil, err
			}
		}
	} else {
		pickWinnerProxy(cfg, rep)
	}
	if rep.Winner != nil {
		rep.BudgetReduction = 1 - float64(rep.Winner.Budget)/float64(refResult.Budget)
		cfg.logf("autotune: winner %s budget %d (reference %d, −%.0f%%)",
			rep.Winner.Candidate, rep.Winner.Budget, refResult.Budget, 100*rep.BudgetReduction)
	} else {
		cfg.logf("autotune: no candidate held recall within %.3f of the reference", cfg.MaxRecallLoss)
	}
	return rep, nil
}

// sweepWave is the sweep's wave width: candidates are evaluated
// concurrently sweepWave at a time, and pruning consults only completed
// waves. The wave boundaries decide which dominators are visible, and so
// which configs get pruned; a fixed width keeps the report independent of
// the core count. The recorded 10k and 100k reports were swept at width 2.
const sweepWave = 2

// sweep evaluates the grid in deterministic budget-ordered waves of
// sweepWave, pruning candidates dominated by an already-evaluated config
// on both axes: parameter monotonicity (≥ tables, ≤ atoms, ≥ width never
// lose recall) plus ≤ budget. Pruning looks only at completed waves, so
// the result set is a pure function of the config — independent of
// scheduling.
func (env *sweepEnv) sweep(cfg Config, grid []Candidate, ref *Result, rep *Report) []Result {
	results := make([]Result, len(grid))
	evaluated := []*Result{ref}
	for start := 0; start < len(grid); start += sweepWave {
		end := min(start+sweepWave, len(grid))
		for i := start; i < end; i++ {
			if grid[i] == ref.Candidate {
				results[i] = *ref
				continue
			}
			if dom := dominatorOf(evaluated, grid[i]); dom != nil {
				results[i] = Result{
					Candidate: grid[i],
					Budget:    grid[i].Budget(),
					Pruned:    true,
					PrunedBy:  dom.Candidate.String(),
				}
				rep.Pruned++
			}
		}
		var wg sync.WaitGroup
		for i := start; i < end; i++ {
			if results[i].Pruned || grid[i] == ref.Candidate {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = env.evaluate(grid[i])
			}(i)
		}
		wg.Wait()
		for i := start; i < end; i++ {
			if results[i].Pruned || grid[i] == ref.Candidate {
				continue
			}
			rep.Evaluated++
			// Only feasible results may act as dominators: an unbuildable
			// config must never prune a buildable one out of contention.
			if results[i].Err == "" && results[i].Feasible {
				evaluated = append(evaluated, &results[i])
			}
		}
		cfg.logf("autotune: sweep %d/%d (evaluated %d, pruned %d)",
			end, len(grid), rep.Evaluated, rep.Pruned)
	}
	return results
}

// dominatorOf returns an evaluated result that dominates c, or nil. a
// dominates c when a costs no more and — by LSH parameter monotonicity —
// recalls no less: at least as many tables, at most as many atoms, at
// least as wide quantization. (Monotonicity holds in expectation over the
// family draw; on a finite sample it is a heuristic, which only ever drops
// a config from the frontier, never mis-reports one: pruned entries carry
// no recall claim.)
func dominatorOf(evaluated []*Result, c Candidate) *Result {
	for _, a := range evaluated {
		if a.Candidate == c {
			continue
		}
		if a.Budget <= c.Budget() && a.Tables >= c.Tables && a.Atoms <= c.Atoms && a.Width >= c.Width {
			return a
		}
	}
	return nil
}

// frontier extracts the Pareto skyline from the feasible results plus the
// reference: budget ascending, keeping points of strictly increasing
// recall. Infeasible configs are excluded — a point that cannot be built
// has no place on an operating frontier.
func frontier(results []Result, ref Result) []Result {
	pool := make([]Result, 0, len(results)+1)
	pool = append(pool, ref)
	for _, r := range results {
		if !r.Pruned && r.Err == "" && r.Feasible && r.Candidate != ref.Candidate {
			pool = append(pool, r)
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].Budget != pool[j].Budget {
			return pool[i].Budget < pool[j].Budget
		}
		if pool[i].Recall != pool[j].Recall {
			return pool[i].Recall > pool[j].Recall
		}
		return pool[i].Candidate.less(pool[j].Candidate)
	})
	var sky []Result
	best := math.Inf(-1)
	for _, r := range pool {
		if r.Recall > best {
			sky = append(sky, r)
			best = r.Recall
		}
	}
	return sky
}

// pickWinnerProxy selects the cheapest frontier point whose sweep-proxy
// recall and accuracy both stay within MaxRecallLoss of the reference.
func pickWinnerProxy(cfg Config, rep *Report) {
	recallFloor := rep.Reference.Recall - cfg.MaxRecallLoss
	accFloor := rep.Reference.Accuracy - cfg.MaxRecallLoss
	for i := range rep.Frontier {
		if rep.Frontier[i].Recall >= recallFloor && rep.Frontier[i].Accuracy >= accFloor {
			w := rep.Frontier[i]
			rep.Winner = &w
			return
		}
	}
}

// pickWinnerMeasured selects the cheapest measured frontier point whose
// secure-path recall and accuracy both stay within MaxRecallLoss of the
// measured reference. Points whose measurement failed cannot win.
func pickWinnerMeasured(cfg Config, rep *Report) {
	if rep.Reference.Measured == nil {
		return
	}
	recallFloor := rep.Reference.Measured.Recall - cfg.MaxRecallLoss
	accFloor := rep.Reference.Measured.Accuracy - cfg.MaxRecallLoss
	for i := range rep.Frontier {
		m := rep.Frontier[i].Measured
		if m != nil && m.Recall >= recallFloor && m.Accuracy >= accFloor {
			w := rep.Frontier[i]
			rep.Winner = &w
			return
		}
	}
}

// sweepEnv is the shared, read-only evaluation state: the population, the
// query workload with brute-force ground truth, the profiles' insertion
// order, and the master projections from which every grid candidate's
// family is a truncation.
type sweepEnv struct {
	cfg       Config
	profiles  [][]float64
	queries   [][]float64
	gt        [][]vec.Scored // ground truth per query; IDs are profile indexes
	maxTables int
	maxAtoms  int
	// order is every profile index in the order it enters a candidate's
	// tables and index (densityOrder).
	order []int
	// rawP[i] is profile i's flattened [maxTables×maxAtoms] raw
	// projections under the master projector, rawQ[q] query q's, and
	// off the projector's offsets.
	rawP [][]float64
	rawQ [][]float64
	off  []float64
	// keys[l] is a deterministic key set with l table keys, shared by the
	// placement feasibility checks of every candidate with l tables.
	keys map[int]*crypt.KeySet
}

// newSweepEnv generates the population, ground truth, insertion order and
// master projections for the run. Everything derives from cfg.Seed.
func newSweepEnv(cfg Config, grid []Candidate) (*sweepEnv, error) {
	ds, err := dataset.Generate(tuneDataset(cfg))
	if err != nil {
		return nil, fmt.Errorf("autotune: generate population: %w", err)
	}
	queries, _ := ds.Queries(cfg.Queries, cfg.Seed+1)

	env := &sweepEnv{
		cfg:      cfg,
		profiles: ds.Profiles,
		queries:  queries,
		gt:       make([][]vec.Scored, len(queries)),
	}
	cfg.logf("autotune: computing brute-force ground truth (%d queries over %d profiles)",
		len(queries), len(ds.Profiles))
	for qi, q := range queries {
		env.gt[qi] = baseline.BruteForceTopK(ds.Profiles, q, cfg.K)
	}

	ref := Reference(cfg.Users)
	env.maxTables, env.maxAtoms = ref.Tables, ref.Atoms
	env.keys = make(map[int]*crypt.KeySet)
	tableCounts := map[int]struct{}{ref.Tables: {}}
	for _, c := range grid {
		env.maxTables = max(env.maxTables, c.Tables)
		env.maxAtoms = max(env.maxAtoms, c.Atoms)
		tableCounts[c.Tables] = struct{}{}
	}
	for l := range tableCounts {
		keys, err := crypt.GenDeterministic(fmt.Sprintf("autotune-sweep-%d", cfg.Seed), l)
		if err != nil {
			return nil, fmt.Errorf("autotune: feasibility keys (l=%d): %w", l, err)
		}
		env.keys[l] = keys
	}

	env.order = densityOrder(ds.Profiles)
	cfg.logf("autotune: projecting population (master family %d×%d)", env.maxTables, env.maxAtoms)
	env.project()
	return env, nil
}

// densityOrder returns the profile indexes sorted by participation ratio
// 1/Σvᵢ⁴ — the effective number of active dimensions of a unit-norm
// histogram — ascending, ties broken by index. Members enter every
// candidate's tables and index in this order: cuckoo placement is
// order-sensitive, and the tiers frontend.ConfigForPopulation records were
// measured in it.
func densityOrder(profiles [][]float64) []int {
	density := make([]float64, len(profiles))
	parallelOver(len(profiles), func(i int) {
		var s4 float64
		for _, v := range profiles[i] {
			s4 += v * v * v * v
		}
		if s4 > 0 {
			density[i] = 1 / s4
		}
	})
	order := make([]int, len(profiles))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if density[order[a]] != density[order[b]] {
			return density[order[a]] < density[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// project draws the master projector (maxTables×maxAtoms Gaussian
// projections plus uniform offsets — the E2LSH family with the width
// factored out: h(v) = ⌊(a·v)/W + u⌋ equals ⌊(a·v + b)/W⌋ with b = u·W),
// then projects every profile and every query under it. Each grid
// candidate's family is the truncation of this master to its first l
// tables and k atoms at its own width, so the population is projected once
// instead of once per config. The seed offset pins the family the recorded
// tiers were measured with.
func (env *sweepEnv) project() {
	rng := rand.New(rand.NewSource(env.cfg.Seed + 8777))
	vecs := make([][]float64, env.maxTables*env.maxAtoms)
	env.off = make([]float64, len(vecs))
	for a := range vecs {
		v := make([]float64, env.cfg.Dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		vecs[a] = v
		env.off[a] = rng.Float64()
	}
	env.rawP = make([][]float64, len(env.profiles))
	parallelOver(len(env.profiles), func(i int) {
		env.rawP[i] = rawProject(vecs, env.profiles[i])
	})
	env.rawQ = make([][]float64, len(env.queries))
	for qi, q := range env.queries {
		env.rawQ[qi] = rawProject(vecs, q)
	}
}

// rawProject computes a·v for every master atom.
func rawProject(vecs [][]float64, v []float64) []float64 {
	out := make([]float64, len(vecs))
	for a, pv := range vecs {
		out[a] = vec.Dot(pv, v)
	}
	return out
}

// tableHash composes table j's value for a candidate: the FNV-1a digest of
// its first k quantized atoms, ⌊raw/W + off⌋ each.
func tableHash(raw, off []float64, maxAtoms, j, k int, width float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	base := j * maxAtoms
	for t := 0; t < k; t++ {
		x := raw[base+t]/width + off[base+t]
		f := math.Floor(x)
		n := uint64(int64(f))
		buf[0] = byte(n >> 56)
		buf[1] = byte(n >> 48)
		buf[2] = byte(n >> 40)
		buf[3] = byte(n >> 32)
		buf[4] = byte(n >> 24)
		buf[5] = byte(n >> 16)
		buf[6] = byte(n >> 8)
		buf[7] = byte(n)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// evaluate measures one candidate with the plain-LSH proxy: index every
// profile's l table hashes, then for each query rank the union of its
// bucket candidates against the brute-force ground truth. Pure and
// deterministic — safe to run concurrently.
func (env *sweepEnv) evaluate(c Candidate) Result {
	res := Result{Candidate: c, Budget: c.Budget()}
	if c.Tables > env.maxTables || c.Atoms > env.maxAtoms {
		res.Err = fmt.Sprintf("candidate %s exceeds master family %d×%d", c, env.maxTables, env.maxAtoms)
		res.Repro = Repro(env.cfg, c)
		return res
	}

	// buckets[j] maps table j's hash to profile indexes; the same hashes
	// double as each profile's metadata for the placement feasibility
	// check.
	buckets := make([]map[uint64][]int32, c.Tables)
	for j := range buckets {
		buckets[j] = make(map[uint64][]int32, len(env.order))
	}
	items := make([]core.Item, len(env.order))
	for mi, m := range env.order {
		meta := make(lsh.Metadata, c.Tables)
		for j := range meta {
			h := tableHash(env.rawP[m], env.off, env.maxAtoms, j, c.Atoms, c.Width)
			meta[j] = h
			buckets[j][h] = append(buckets[j][h], int32(m))
		}
		items[mi] = core.Item{ID: uint64(m) + 1, Meta: meta}
	}
	res.Feasible = env.placeable(c, items)

	var recallSum, accSum, candSum float64
	seen := make(map[int32]struct{})
	cands := make([]int, 0, 256)
	for qi, q := range env.queries {
		cands = cands[:0]
		clear(seen)
		for j := range buckets {
			h := tableHash(env.rawQ[qi], env.off, env.maxAtoms, j, c.Atoms, c.Width)
			for _, m := range buckets[j][h] {
				if _, dup := seen[m]; !dup {
					seen[m] = struct{}{}
					cands = append(cands, int(m))
				}
			}
		}
		candSum += float64(len(cands))
		retrieved := baseline.RankCandidates(env.profiles, q, cands, env.cfg.K)
		recallSum += baseline.RecallAtK(env.gt[qi], retrieved)
		accSum += baseline.AccuracyRatio(env.gt[qi], retrieved)
	}
	nq := float64(len(env.queries))
	res.Recall = recallSum / nq
	res.Accuracy = accSum / nq
	res.Candidates = candSum / nq
	return res
}

// placeable reports whether the population admits a cuckoo placement
// under candidate c at the production load factor and kick
// budget. Wide quantization widths concentrate members on shared table
// hashes; past a point no placement exists and the config, however good
// its proxy recall, cannot be built. The check runs the real PRF-addressed
// placer over the sweep's proxy metadata — same bucket-collision structure
// as the production build, no encryption. Two kick-seed attempts stand in
// for the production rehash loop; the screen is deliberately conservative,
// since a config that only places with rehash luck is a poor operating
// point to hard-code.
func (env *sweepEnv) placeable(c Candidate, items []core.Item) bool {
	for attempt := int64(0); attempt < 2; attempt++ {
		p := core.Params{
			Tables:     c.Tables,
			Capacity:   core.CapacityFor(len(items), 0.8),
			ProbeRange: c.ProbeRange,
			MaxLoop:    2000,
			Seed:       env.cfg.Seed + attempt,
		}
		pl, err := core.NewPlacement(env.keys[c.Tables], p)
		if err != nil {
			return false
		}
		if pl.Insert(items) == nil {
			return true
		}
	}
	return false
}

// parallelOver runs fn(i) for i in [0, n) across GOMAXPROCS workers in
// contiguous chunks; each index is processed exactly once, so writes to
// index-owned slots are race-free and deterministic.
func parallelOver(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
