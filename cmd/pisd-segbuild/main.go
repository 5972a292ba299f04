// Command pisd-segbuild builds the secure index as a segmented on-disk
// store, streaming the population through the front end in bounded
// batches: each batch of uploads is hashed, placed, encrypted and spilled
// as one segment file, and its plaintext profiles are discarded before the
// next batch is generated. Peak memory is the cuckoo placement plus one
// batch — never the full population — which is what makes million-profile
// builds fit on one machine.
//
//	pisd-segbuild -users 100000 -out /var/lib/pisd/segments -keys sf.keys
//	pisd-server -segments /var/lib/pisd/segments &
//	pisd-frontend -attach -users 100000 -keys sf.keys -discover 1,2
//
// After the stream, small generation-0 segments are compacted into larger
// generations (disable with -fanout 0). With -state, the encrypted
// profiles are also written as a cloud state directory so a server can
// answer full discoveries. With -verify, the monolithic in-RAM index is
// built from the same metadata and every sampled query must return
// byte-identical identifiers — the equivalence check CI runs at scale.
//
// The tool reports build wall time, on-disk index size, sampled SecRec
// latency and peak RSS (VmHWM), optionally as a JSON record via -bench;
// -rss-budget-mb turns the RSS figure into a hard failure for CI.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pisd"
	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/segstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pisd-segbuild:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out       = flag.String("out", "", "segment directory (required, created if absent)")
		stateDir  = flag.String("state", "", "also write a cloud state directory with the encrypted profiles")
		keysFile  = flag.String("keys", "", "key file: loaded if present, written after fresh key generation (keep it secret)")
		users     = flag.Int("users", 100000, "population size")
		dim       = flag.Int("dim", 500, "profile dimensionality")
		topics    = flag.Int("topics", 0, "interest topics in the population (0: scale with population size)")
		seed      = flag.Int64("seed", 1, "population seed")
		batch     = flag.Int("batch", 20000, "uploads per segment")
		fanout    = flag.Int("fanout", 4, "segments merged per compaction (0: keep generation-0 segments)")
		target    = flag.Int("compact-target", 1, "stop compacting at this many segments")
		workers   = flag.Int("compact-workers", 1, "concurrent segment merges")
		queries   = flag.Int("queries", 32, "SecRec latency sample size (0: skip)")
		verify    = flag.Bool("verify", false, "build the monolithic index too and require identical SecRec answers")
		benchFile = flag.String("bench", "", "write a JSON benchmark record to this file")
		metFile   = flag.String("metrics", "", "write a flattened metrics snapshot (JSON) to this file")
		rssBudget = flag.Int("rss-budget-mb", 0, "fail if peak RSS exceeds this many MB (0: no budget)")
	)
	flag.Parse()
	if *out == "" {
		return errors.New("-out is required")
	}
	if *batch < 1 {
		return fmt.Errorf("batch must be >= 1, got %d", *batch)
	}

	// The atom count must be derived from -users exactly as
	// pisd-frontend -attach derives it, or attached trapdoors would
	// address a different hash family than the one the index was built
	// under.
	cfg := pisd.FrontendConfigForPopulation(*dim, *users)
	sf, err := loadOrCreateFrontend(cfg, *keysFile)
	if err != nil {
		return err
	}
	if *topics == 0 {
		*topics = dataset.AutoTopics(*users)
	}
	// Keep this config literal in sync with pisd-frontend: its -attach
	// mode regenerates the population deterministically from the same
	// flags and must get the same profiles.
	it, err := dataset.NewIterator(dataset.Config{
		Users: *users, Dim: *dim, Topics: *topics, TopicsPerUser: 2,
		ActiveWords: *dim / 12, Noise: 0.02, PersonalWeight: 0.6, Seed: *seed,
	})
	if err != nil {
		return err
	}
	sb, err := sf.NewSegmentBuilder(*users, *out)
	if err != nil {
		return err
	}

	var state *pisd.Cloud
	if *stateDir != "" {
		state = pisd.NewCloud()
	}
	// Sampled metadata for the latency probe; full items only under
	// -verify (they are what the monolithic comparison index is built of).
	stride := 0
	if *queries > 0 {
		stride = max(1, *users / *queries)
	}
	var sampleIDs []uint64
	var sampleMetas []pisd.Metadata
	var verifyItems []core.Item

	buildStart := time.Now()
	placed := 0
	for {
		chunk, ok := it.NextChunk(*batch)
		if !ok {
			break
		}
		uploads := make([]pisd.Upload, len(chunk.Profiles))
		for i, p := range chunk.Profiles {
			id := uint64(chunk.Start + i + 1)
			meta := sf.ComputeMeta(p)
			uploads[i] = pisd.Upload{ID: id, Profile: p, Meta: meta}
			if stride > 0 && (chunk.Start+i)%stride == 0 && len(sampleIDs) < *queries {
				sampleIDs = append(sampleIDs, id)
				sampleMetas = append(sampleMetas, meta)
			}
			if *verify {
				verifyItems = append(verifyItems, core.Item{ID: id, Meta: meta})
			}
		}
		cts, err := sb.AddUploads(uploads)
		if err != nil {
			return err
		}
		if state != nil {
			for i, ct := range cts {
				state.PutProfile(uploads[i].ID, ct)
			}
		}
		placed += len(uploads)
		if placed%(*batch*10) == 0 || placed == *users {
			fmt.Printf("placed %d/%d users\n", placed, *users)
		}
	}
	paths, err := sb.Finish()
	if err != nil {
		return err
	}
	buildTime := time.Since(buildStart)

	st, err := segstore.Open(*out)
	if err != nil {
		return err
	}
	defer st.Close()
	st.SetRegistry(pisd.Metrics)
	segsInitial := len(paths)
	fmt.Printf("streamed %d users into %d segments in %s (%.1f MB on disk)\n",
		placed, segsInitial, buildTime.Round(time.Millisecond), float64(st.Bytes())/(1<<20))

	var compactTime time.Duration
	if *fanout > 0 && len(st.Segments()) > *target {
		c := segstore.NewCompactor(st, sb.Placement(), segstore.CompactorConfig{
			Fanout: *fanout, Target: *target, Concurrency: *workers,
		})
		compactStart := time.Now()
		if err := c.Run(); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		compactTime = time.Since(compactStart)
		fmt.Printf("compacted to %d segments in %s\n",
			len(st.Segments()), compactTime.Round(time.Millisecond))
	}

	p50, p99, err := probeLatency(sf, st, sampleMetas)
	if err != nil {
		return err
	}
	if len(sampleMetas) > 0 {
		fmt.Printf("SecRec over %d sampled queries: p50 %s, p99 %s\n",
			len(sampleMetas), p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	}

	if *verify {
		if err := verifyAgainstMonolithic(sf, st, verifyItems, sampleMetas); err != nil {
			return err
		}
		fmt.Printf("verified: segmented SecRec identical to monolithic for all %d sampled queries\n",
			len(sampleMetas))
	}

	if state != nil {
		if err := state.SaveTo(*stateDir); err != nil {
			return fmt.Errorf("save state: %w", err)
		}
		fmt.Printf("saved %d encrypted profiles to %s\n", state.NumProfiles(), *stateDir)
	}
	if *metFile != "" {
		blob, err := json.MarshalIndent(pisd.Metrics.Snapshot().Flatten(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metFile, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}

	rssMB := peakRSSMB()
	fmt.Printf("peak RSS %d MB\n", rssMB)
	if *benchFile != "" {
		record := map[string]any{
			"schema":           "pisd-bench-v1",
			"bench":            "segmented_build",
			"users":            *users,
			"dim":              *dim,
			"batch":            *batch,
			"segments_initial": segsInitial,
			"segments_final":   len(st.Segments()),
			"index_bytes":      st.Bytes(),
			"build_s":          buildTime.Seconds(),
			"compact_s":        compactTime.Seconds(),
			"secrec_p50_us":    p50.Microseconds(),
			"secrec_p99_us":    p99.Microseconds(),
			"peak_rss_mb":      rssMB,
			"verified":         *verify,
		}
		blob, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchFile, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote benchmark record to %s\n", *benchFile)
	}
	if *rssBudget > 0 && rssMB > *rssBudget {
		return fmt.Errorf("peak RSS %d MB exceeds budget of %d MB", rssMB, *rssBudget)
	}
	return nil
}

// loadOrCreateFrontend is the same keys-file contract as pisd-frontend:
// load the key blob if the file exists, otherwise generate fresh keys and
// persist them (mode 0600) so a later -attach run can reuse them.
func loadOrCreateFrontend(cfg pisd.FrontendConfig, keysFile string) (*pisd.Frontend, error) {
	if keysFile != "" {
		if blob, err := os.ReadFile(keysFile); err == nil {
			sf, err := frontend.NewWithKeys(cfg, blob)
			if err != nil {
				return nil, fmt.Errorf("restore keys from %s: %w", keysFile, err)
			}
			fmt.Printf("restored keys from %s\n", keysFile)
			return sf, nil
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	sf, err := pisd.NewFrontend(cfg)
	if err != nil {
		return nil, err
	}
	if keysFile != "" {
		blob, err := sf.ExportKeys()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(keysFile, blob, 0o600); err != nil {
			return nil, fmt.Errorf("persist keys: %w", err)
		}
		fmt.Printf("generated fresh keys and saved them to %s\n", keysFile)
	}
	return sf, nil
}

// probeLatency times one SecRec per sampled metadata against the store.
func probeLatency(sf *pisd.Frontend, st *segstore.Store, metas []pisd.Metadata) (p50, p99 time.Duration, err error) {
	if len(metas) == 0 {
		return 0, 0, nil
	}
	lats := make([]time.Duration, len(metas))
	for i, meta := range metas {
		td, err := sf.TrapdoorForMeta(meta)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if _, err := st.SecRecBatch([]*core.Trapdoor{td}); err != nil {
			return 0, 0, err
		}
		lats[i] = time.Since(start)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], lats[min(len(lats)*99/100, len(lats)-1)], nil
}

// verifyAgainstMonolithic rebuilds the one-shot in-RAM index from the
// retained metadata (same keys, same parameters) and requires every
// sampled query to return the identical identifier sequence from both
// backends.
func verifyAgainstMonolithic(sf *pisd.Frontend, st *segstore.Store, items []core.Item, metas []pisd.Metadata) error {
	blob, err := sf.ExportKeys()
	if err != nil {
		return err
	}
	keys := &crypt.KeySet{}
	if err := keys.UnmarshalBinary(blob); err != nil {
		return err
	}
	p, err := sf.IndexParams()
	if err != nil {
		return err
	}
	idx, err := core.Build(keys, items, p)
	if err != nil {
		return fmt.Errorf("monolithic comparison build: %w", err)
	}
	for q, meta := range metas {
		td, err := sf.TrapdoorForMeta(meta)
		if err != nil {
			return err
		}
		want, err := idx.SecRec(td)
		if err != nil {
			return err
		}
		batch, err := st.SecRecBatch([]*core.Trapdoor{td})
		if err != nil {
			return err
		}
		got := batch[0]
		if len(got) != len(want) {
			return fmt.Errorf("verify: query %d: %d ids segmented, %d monolithic", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("verify: query %d: id %d differs (%d vs %d)", q, i, got[i], want[i])
			}
		}
	}
	return nil
}

// peakRSSMB reads VmHWM (peak resident set) from /proc/self/status,
// returning 0 where unavailable (non-Linux).
func peakRSSMB() int {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.Atoi(fields[1])
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
