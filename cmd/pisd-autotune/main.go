// Command pisd-autotune regenerates the recall-vs-cost frontier: it sweeps
// LSH parameter candidates (l tables, k atoms, width W, probe range d) over
// a seeded synthetic population against the brute-force oracle, then
// rebuilds the Pareto survivors on the real secure stack to measure recall,
// bucket traffic, trapdoor cost, index bytes and qps in real units.
//
//	pisd-autotune -users 100000 -out frontier.json
//	pisd-autotune -users 2000 -dim 128 -grid tiny -queries 24   # CI smoke
//
// The winner — the cheapest config holding measured secure recall within
// -max-recall-loss of the untuned reference — is what
// frontend.ConfigForPopulation hard-codes per population tier; rerun this
// tool and update the tuned table there when the population model or the
// scheme changes. Every run is reproducible from -seed; failing configs
// print a one-line repro.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pisd/internal/autotune"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pisd-autotune:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("pisd-autotune", flag.ContinueOnError)
	var (
		users   = fs.Int("users", 10000, "population size to tune for")
		dim     = fs.Int("dim", 1000, "profile dimensionality")
		k       = fs.Int("k", 10, "recall@k cutoff")
		queries = fs.Int("queries", 64, "evaluation query count")
		seed    = fs.Int64("seed", 1, "run seed (population, families, workload)")
		loss    = fs.Float64("max-recall-loss", 0.01, "recall the winner may give up vs the reference")
		grid    = fs.String("grid", "default", "candidate grid: default, tiny, or 'l=6,atoms=5,width=0.85,d=4;...'")
		measure = fs.Bool("measure", true, "rebuild reference+frontier on the secure stack (real-unit costs)")
		outFile = fs.String("out", "", "write the full report JSON to this file")
		quiet   = fs.Bool("quiet", false, "suppress progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cands, err := parseGrid(*grid, *users)
	if err != nil {
		return err
	}
	cfg := autotune.Config{
		Users:         *users,
		Dim:           *dim,
		K:             *k,
		Queries:       *queries,
		Seed:          *seed,
		MaxRecallLoss: *loss,
		Grid:          cands,
		Measure:       *measure,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		}
	}
	rep, err := autotune.Run(cfg)
	if err != nil {
		return err
	}
	printReport(out, rep)

	if *outFile != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote report to %s\n", *outFile)
	}
	if rep.Winner == nil {
		return fmt.Errorf("no candidate held recall within %.3f of the reference", cfg.MaxRecallLoss)
	}
	return nil
}

// parseGrid resolves a preset name or parses a semicolon-separated custom
// candidate list.
func parseGrid(spec string, users int) ([]autotune.Candidate, error) {
	switch spec {
	case "default":
		return autotune.DefaultGrid(users), nil
	case "tiny":
		return autotune.TinyGrid(users), nil
	}
	var out []autotune.Candidate
	for _, one := range strings.Split(spec, ";") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		c := autotune.Candidate{ProbeRange: 4}
		for _, kv := range strings.Split(one, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("grid entry %q: want key=value, got %q", one, kv)
			}
			switch key {
			case "l":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("grid entry %q: l: %w", one, err)
				}
				c.Tables = n
			case "atoms", "k":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("grid entry %q: atoms: %w", one, err)
				}
				c.Atoms = n
			case "width", "W", "w":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("grid entry %q: width: %w", one, err)
				}
				c.Width = f
			case "d", "probe_range":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("grid entry %q: d: %w", one, err)
				}
				c.ProbeRange = n
			default:
				return nil, fmt.Errorf("grid entry %q: unknown key %q", one, key)
			}
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("grid entry %q: %w", one, err)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("grid %q: no candidates", spec)
	}
	return out, nil
}

// printReport renders the frontier and winner as a table.
func printReport(out *os.File, rep *autotune.Report) {
	fmt.Fprintf(out, "\nreference %s: budget %d, proxy recall %.4f", rep.Reference.Candidate,
		rep.Reference.Budget, rep.Reference.Recall)
	if m := rep.Reference.Measured; m != nil {
		fmt.Fprintf(out, ", secure recall %.4f, %.0f buckets/q, %.1f µs trapdoor, %.1f MB index, %.0f qps",
			m.Recall, m.BucketsPerQuery, m.TrapdoorUS, float64(m.IndexBytes)/(1<<20), m.QPS)
	}
	fmt.Fprintf(out, "\n\n%-28s %6s %8s %8s %9s", "frontier config", "budget", "recall", "accuracy", "cands/q")
	fmt.Fprintf(out, " %10s %9s %8s %9s %7s\n", "sec-recall", "buckets/q", "tpdr-µs", "index-MB", "qps")
	for _, r := range rep.Frontier {
		fmt.Fprintf(out, "%-28s %6d %8.4f %8.4f %9.1f", r.Candidate.String(), r.Budget, r.Recall, r.Accuracy, r.Candidates)
		if r.Measured != nil {
			m := r.Measured
			fmt.Fprintf(out, " %10.4f %9.1f %8.1f %9.2f %7.0f", m.Recall, m.BucketsPerQuery,
				m.TrapdoorUS, float64(m.IndexBytes)/(1<<20), m.QPS)
		} else if r.Err != "" {
			fmt.Fprintf(out, "  INFEASIBLE: %s", r.Err)
		}
		fmt.Fprintln(out)
		if r.Repro != "" {
			fmt.Fprintf(out, "  %s\n", r.Repro)
		}
	}
	if rep.Winner != nil {
		fmt.Fprintf(out, "\nwinner: %s — budget %d vs %d (−%.0f%%)\n",
			rep.Winner.Candidate, rep.Winner.Budget, rep.Reference.Budget, 100*rep.BudgetReduction)
	}
}
