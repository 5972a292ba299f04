package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// The --repeat self-check: run each workload n times, each in a fresh
// child process on its own seed, and judge every end-to-end metric's
// run-to-run spread the way the acceptance check does — the distance
// between the first and third quartile of the n values as a share of their
// median, against the metric's own bound.

// spreadOf is the distance between the first and third quartile of vals,
// taken as Python's statistics.quantiles(vals, n=4) takes them (the
// exclusive method), as a share of their median.
func spreadOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	mid := (s[(len(s)-1)/2] + s[len(s)/2]) / 2
	if mid == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / mid
}

// runChild runs one workload once in a child process and returns its
// result line.
func runChild(workload string, seed int64, seconds float64, scaleName string) (output, error) {
	exe, err := os.Executable()
	if err != nil {
		return output{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--scale", scaleName)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return output{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var out output
	if err := json.Unmarshal(last, &out); err != nil {
		return output{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return out, nil
}

// repeatRuns is the --repeat mode; it returns the process's exit code.
func repeatRuns(n int, only string, seed int64, seconds float64, scaleName string) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "pisd-bench: --repeat needs at least 2 runs to have a spread")
		return 2
	}
	exit := 0
	for _, w := range workloads {
		if only != "" && only != w.Name {
			continue
		}
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			out, err := runChild(w.Name, seed+int64(i), seconds, scaleName)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pisd-bench: %v\n", err)
				return 1
			}
			if !out.Correct {
				fmt.Printf("%s seed %d: %d of %d operations failed\n", w.Name, seed+int64(i), out.Failed, out.Attempted)
				exit = 1
			}
			fmt.Printf("%s seed %d:", w.Name, seed+int64(i))
			for _, m := range endToEnd {
				fmt.Printf(" %s=%.5g", m.Name, out.Metrics[m.Name].Value)
				values[m.Name] = append(values[m.Name], out.Metrics[m.Name].Value)
			}
			fmt.Println()
		}
		fmt.Printf("%s, %d runs, seeds %d..%d\n", w.Name, n, seed, seed+int64(n)-1)
		fmt.Printf("  %-22s %12s %12s %12s %8s %7s\n", "metric", "min", "median", "max", "spread", "bound")
		for _, m := range endToEnd {
			v := append([]float64(nil), values[m.Name]...)
			sort.Float64s(v)
			spread := spreadOf(v)
			verdict := ""
			// setup_s is judged on its median alone, not on its spread.
			if spread > m.Bound && m.Name != "setup_s" {
				verdict = "  SPREAD EXCEEDS BOUND"
				exit = 1
			}
			fmt.Printf("  %-22s %12.6g %12.6g %12.6g %7.1f%% %6.0f%%%s\n", m.Name, v[0], median(v), v[len(v)-1], 100*spread, 100*m.Bound, verdict)
		}
	}
	return exit
}
