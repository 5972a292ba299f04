package autotune

import (
	"encoding/json"
	"math"
	"runtime"
	"slices"
	"testing"
)

// smokeConfig is the tiny seeded run the CI autotune-smoke job also
// executes: small enough for seconds, large enough that the known-dominant
// config separates from the rest.
func smokeConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Users:         2000,
		Dim:           128,
		K:             10,
		Queries:       24,
		Seed:          1,
		MaxRecallLoss: 0.01,
		Grid:          TinyGrid(2000),
	}
}

// TestAutotuneDeterminism pins the single-seed discipline: two runs of the
// same config produce byte-identical reports.
func TestAutotuneDeterminism(t *testing.T) {
	cfg := smokeConfig(t)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("two runs of the same seed differ:\n%s\n---\n%s", ja, jb)
	}
}

// TestAutotuneTinyGridWinner asserts the tuner reproduces the known
// dominant config on the seeded smoke dataset: the sweep must surface a
// winner strictly cheaper than the reference that holds proxy recall
// within the tolerance. The exact winner is pinned so a silent change in
// evaluation or ordering fails loudly (repro: the smokeConfig literal).
func TestAutotuneTinyGridWinner(t *testing.T) {
	cfg := smokeConfig(t)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Winner == nil {
		t.Fatalf("no winner; frontier: %+v; %s", rep.Frontier, Repro(cfg, rep.Reference.Candidate))
	}
	w := rep.Winner
	if w.Budget >= rep.Reference.Budget {
		t.Errorf("winner budget %d not below reference %d; %s", w.Budget, rep.Reference.Budget, Repro(cfg, w.Candidate))
	}
	if w.Recall < rep.Reference.Recall-cfg.MaxRecallLoss-1e-9 {
		t.Errorf("winner recall %.4f below floor %.4f; %s", w.Recall,
			rep.Reference.Recall-cfg.MaxRecallLoss, Repro(cfg, w.Candidate))
	}
	want := Candidate{Tables: 6, Atoms: 4, Width: 1.0, ProbeRange: 4}
	if w.Candidate != want {
		t.Errorf("winner = %s, want the known-dominant %s; %s", w.Candidate, want, Repro(cfg, w.Candidate))
	}
	if rep.BudgetReduction < 0.25 {
		t.Errorf("budget reduction %.2f below the 25%% target", rep.BudgetReduction)
	}
}

// TestAutotuneMeasuredRun exercises the real-stack measurement phase: the
// reference and every feasible frontier point carry real-unit costs, and
// the measured bucket traffic equals the candidate's budget exactly (the
// leakage invariant read through the live cloud counters; monolithic
// builds carry no stash).
func TestAutotuneMeasuredRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real-stack builds")
	}
	cfg := smokeConfig(t)
	cfg.Queries = 12
	cfg.Measure = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reference.Measured == nil {
		t.Fatal("reference has no measurement")
	}
	checkMeasured := func(r Result) {
		m := r.Measured
		if m == nil {
			return
		}
		if got, want := m.BucketsPerQuery, float64(r.Budget); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: measured %.1f buckets/query, budget says %d; %s",
				r.Candidate, got, r.Budget, Repro(cfg, r.Candidate))
		}
		if m.IndexBytes <= 0 || m.TrapdoorUS <= 0 || m.QPS <= 0 {
			t.Errorf("%s: incomplete measurement %+v", r.Candidate, *m)
		}
		if m.Recall < 0 || m.Recall > 1 {
			t.Errorf("%s: secure recall %v out of [0,1]", r.Candidate, m.Recall)
		}
	}
	checkMeasured(rep.Reference)
	measured := 0
	for _, r := range rep.Frontier {
		checkMeasured(r)
		if r.Measured != nil {
			measured++
		}
	}
	if measured == 0 {
		t.Error("no frontier point was measured")
	}
	if rep.Winner != nil && rep.Winner.Measured == nil {
		t.Errorf("winner %s selected without a measurement", rep.Winner.Candidate)
	}
}

// TestSweepPrunesDominated checks dominance pruning fires and that pruned
// entries make no recall claim.
func TestSweepPrunesDominated(t *testing.T) {
	cfg := smokeConfig(t)
	// The first config is cheaper (budget 15 vs 20) yet has more tables,
	// fewer atoms and the same width — the sweep's budget ordering runs it
	// in the first wave, where it dominates the last on every axis. The
	// budget-16 filler, which dominates neither, fills that first wave.
	cfg.Grid = []Candidate{
		{Tables: 5, Atoms: 4, Width: 0.7, ProbeRange: 2},
		{Tables: 2, Atoms: 4, Width: 1.0, ProbeRange: 7},
		{Tables: 4, Atoms: 5, Width: 0.7, ProbeRange: 4},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pruned != 1 {
		t.Fatalf("pruned %d configs, want 1: %+v", rep.Pruned, rep.Results)
	}
	for _, r := range rep.Results {
		if !r.Pruned {
			continue
		}
		if r.PrunedBy == "" {
			t.Errorf("pruned %s carries no dominator", r.Candidate)
		}
		if r.Recall != 0 || r.Accuracy != 0 {
			t.Errorf("pruned %s claims recall %v / accuracy %v", r.Candidate, r.Recall, r.Accuracy)
		}
	}
}

// TestDominatorOf pins the monotone dominance relation.
func TestDominatorOf(t *testing.T) {
	a := &Result{Candidate: Candidate{Tables: 6, Atoms: 4, Width: 1.0, ProbeRange: 4}}
	a.Budget = a.Candidate.Budget()
	evaluated := []*Result{a}
	cases := []struct {
		c    Candidate
		want bool
	}{
		// Fewer tables, more atoms, narrower width, same budget axis →
		// dominated.
		{Candidate{Tables: 5, Atoms: 5, Width: 0.7, ProbeRange: 5}, true},
		{Candidate{Tables: 6, Atoms: 4, Width: 0.7, ProbeRange: 4}, true},
		// More tables: could recall more.
		{Candidate{Tables: 7, Atoms: 4, Width: 1.0, ProbeRange: 4}, false},
		// Fewer atoms: could recall more.
		{Candidate{Tables: 6, Atoms: 3, Width: 1.0, ProbeRange: 4}, false},
		// Wider: could recall more.
		{Candidate{Tables: 6, Atoms: 4, Width: 1.2, ProbeRange: 4}, false},
		// Cheaper budget: could still be a frontier point.
		{Candidate{Tables: 6, Atoms: 4, Width: 0.7, ProbeRange: 3}, false},
		// Itself: never its own dominator.
		{a.Candidate, false},
	}
	for _, tc := range cases {
		got := dominatorOf(evaluated, tc.c) != nil
		if got != tc.want {
			t.Errorf("dominatorOf(%s vs %s) = %v, want %v", tc.c, a.Candidate, got, tc.want)
		}
	}
}

// TestDensityOrder pins the insertion order: ascending participation
// ratio 1/Σvᵢ⁴, ties broken by index, zero vectors first.
func TestDensityOrder(t *testing.T) {
	h := math.Sqrt(0.5)
	profiles := [][]float64{
		{0.6, 0.8}, // 1/(0.6⁴+0.8⁴) ≈ 1.85
		{1, 0},     // 1
		{0, 0},     // 0
		{0, 1},     // 1, ties with profile 1
		{h, h},     // 2
	}
	if got, want := densityOrder(profiles), []int{2, 1, 3, 0, 4}; !slices.Equal(got, want) {
		t.Errorf("densityOrder = %v, want %v", got, want)
	}
}

// TestSweepIndependentOfGOMAXPROCS pins the sweep's wave width: the default
// grid's report — which configs are evaluated and which pruned — is
// byte-identical whatever the core count.
func TestSweepIndependentOfGOMAXPROCS(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.Grid = DefaultGrid(cfg.Users)
	run := func(procs int) (*Report, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return rep, string(blob)
	}
	one, oneJSON := run(1)
	eight, eightJSON := run(8)
	if oneJSON != eightJSON {
		t.Fatalf("GOMAXPROCS 1 and 8 produce different reports: evaluated/pruned %d/%d vs %d/%d",
			one.Evaluated, one.Pruned, eight.Evaluated, eight.Pruned)
	}
}

// TestFrontierIsSkyline pins the Pareto extraction: budget strictly
// ascending, recall strictly ascending.
func TestFrontierIsSkyline(t *testing.T) {
	cfg := smokeConfig(t)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Frontier); i++ {
		prev, cur := rep.Frontier[i-1], rep.Frontier[i]
		if cur.Budget <= prev.Budget {
			t.Errorf("frontier budgets not ascending: %d then %d", prev.Budget, cur.Budget)
		}
		if cur.Recall <= prev.Recall {
			t.Errorf("frontier recall not ascending: %v then %v", prev.Recall, cur.Recall)
		}
	}
	// Every non-pruned result must be dominated by or on the frontier.
	for _, r := range rep.Results {
		if r.Pruned || r.Err != "" {
			continue
		}
		onOrDominated := false
		for _, f := range rep.Frontier {
			if f.Candidate == r.Candidate || (f.Budget <= r.Budget && f.Recall >= r.Recall) {
				onOrDominated = true
				break
			}
		}
		if !onOrDominated {
			t.Errorf("%s (budget %d, recall %v) neither on frontier nor dominated", r.Candidate, r.Budget, r.Recall)
		}
	}
}

// TestReproLine pins the one-line repro format used by failing configs.
func TestReproLine(t *testing.T) {
	cfg := smokeConfig(t)
	c := Candidate{Tables: 6, Atoms: 5, Width: 0.85, ProbeRange: 4}
	got := Repro(cfg, c)
	want := `repro: go run ./cmd/pisd-autotune -users 2000 -dim 128 -k 10 -queries 24 -seed 1 -grid "l=6,atoms=5,width=0.85,d=4"`
	if got != want {
		t.Errorf("repro line:\n got %s\nwant %s", got, want)
	}
}

// TestConfigValidation pins the required-field errors.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Users: 0, Grid: TinyGrid(1000)}); err == nil {
		t.Error("users=0 accepted")
	}
	if _, err := Run(Config{Users: 100}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := Run(Config{Users: 100, Grid: []Candidate{{Tables: 0, Atoms: 1, Width: 1}}}); err == nil {
		t.Error("invalid candidate accepted")
	}
}

// TestMaxRecallLossKeptAsGiven pins that a zero loss budget means "no
// recall loss allowed" rather than a default, and that a negative one is
// refused.
func TestMaxRecallLossKeptAsGiven(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.MaxRecallLoss = 0
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.MaxRecallLoss != 0 {
		t.Errorf("report records max recall loss %v, want 0", rep.Config.MaxRecallLoss)
	}
	cfg.MaxRecallLoss = -0.01
	if _, err := Run(cfg); err == nil {
		t.Error("negative max recall loss accepted")
	}
}

// TestBudget pins the cost model l·(d+1).
func TestBudget(t *testing.T) {
	c := Candidate{Tables: 10, Atoms: 4, Width: 0.7, ProbeRange: 4}
	if c.Budget() != 50 {
		t.Errorf("budget = %d, want 50", c.Budget())
	}
}
