package experiments

import (
	"fmt"

	"pisd/internal/autotune"
)

// ExpAutotuneName runs the recall/cost autotuner and tabulates its
// Pareto frontier.
const ExpAutotuneName = "autotune"

// ExpAutotune reproduces the recall-vs-cost frontier of DESIGN.md §16 at
// the experiment scale: the tuner sweeps the tiny grid around the untuned
// reference, screens placement feasibility, measures every frontier
// survivor on the real secure stack, and reports the cheapest config that
// holds measured recall and accuracy within the loss budget.
func ExpAutotune(s Scale) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := autotune.Config{
		Users:         s.AccuracyUsers,
		Dim:           s.Dim,
		Queries:       s.Queries,
		Seed:          s.Seed,
		MaxRecallLoss: 0.01,
		Grid:          autotune.TinyGrid(s.AccuracyUsers),
		Measure:       true,
	}
	rep, err := autotune.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("autotune: %w", err)
	}

	t := &Table{
		ID:    "Autotune",
		Title: fmt.Sprintf("Recall-vs-cost frontier, n=%d (tiny grid, measured on the secure stack)", cfg.Users),
		Header: []string{
			"config", "budget", "proxy recall", "sec recall", "accuracy", "buckets/q", "tpdr (µs)", "index", "qps",
		},
	}
	row := func(label string, r autotune.Result) []string {
		cells := []string{
			label,
			fmt.Sprintf("%d", r.Budget),
			fmt.Sprintf("%.4f", r.Recall),
			"-", "-", "-", "-", "-", "-",
		}
		if m := r.Measured; m != nil {
			cells[3] = fmt.Sprintf("%.4f", m.Recall)
			cells[4] = fmt.Sprintf("%.4f", m.Accuracy)
			cells[5] = fmt.Sprintf("%.1f", m.BucketsPerQuery)
			cells[6] = fmt.Sprintf("%.1f", m.TrapdoorUS)
			cells[7] = humanBytes(float64(m.IndexBytes))
			cells[8] = fmt.Sprintf("%.0f", m.QPS)
		}
		return cells
	}
	t.Rows = append(t.Rows, row("reference "+rep.Reference.Candidate.String(), rep.Reference))
	for _, r := range rep.Frontier {
		t.Rows = append(t.Rows, row(r.Candidate.String(), r))
	}
	if w := rep.Winner; w != nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"winner %s: budget %d vs reference %d (−%.0f%% of l·(d+1)) at no measured recall/accuracy loss beyond %.2f",
			w.Candidate, w.Budget, rep.Reference.Budget, 100*rep.BudgetReduction, rep.Config.MaxRecallLoss))
	} else {
		t.Notes = append(t.Notes, "no config within the recall-loss budget beat the reference; defaults stand")
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d configs evaluated, %d pruned by dominance; buckets/q is read from the live cloud.buckets_unmasked counter",
		rep.Evaluated, rep.Pruned))
	return t, nil
}
