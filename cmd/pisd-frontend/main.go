// Command pisd-frontend runs the trusted service front end SF against a
// remote cloud server: it generates (or accepts) a user population, builds
// the secure index, outsources it with the encrypted profiles over TCP,
// and runs privacy-preserving discoveries.
//
//	pisd-server &                                  # terminal 1
//	pisd-frontend -cloud 127.0.0.1:7001 -users 5000 -discover 1,2,3
//
// Passing a comma-separated -cloud list selects the sharded deployment:
// users are partitioned across the servers (id mod S), one projected
// secure index is installed per shard, and every discovery fans out to all
// shards in parallel. Results that could not reach every shard are marked
// partial.
//
//	pisd-server -addr 127.0.0.1:7001 -shards 4 &   # terminal 1
//	pisd-frontend -cloud 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004
//
// With -attach, the front end skips building entirely and attaches to a
// segmented index that pisd-segbuild streamed to disk earlier: it restores
// the keys from the (required) -keys file, re-derives the index parameters
// from the population size, and goes straight to discovery against a
// server started with -segments. -users and -keys must match the build.
//
//	pisd-segbuild -users 20000 -out segs -state state -keys sf.keys
//	pisd-server -segments segs -state state &
//	pisd-frontend -attach -users 20000 -keys sf.keys -discover 1,2
//
// With -obs ADDR, an observability HTTP endpoint serves a JSON metrics
// snapshot at /metrics — frontend per-stage latency, per-shard fan-out
// health, transport traffic — plus /debug/pprof/; the process then stays
// alive after the discoveries until interrupted, so the endpoint can be
// scraped.
//
// With -dynamic (implied by -subscribe or -churn), the front end builds
// the updatable index instead and serves through the cached dynamic path:
// -subscribe N registers N standing top-k queries, -churn M drives M
// insert/delete operations against the live index, and every
// standing-result change streams to stdout as it happens (subs.* metrics
// ride the -obs endpoint). -notify-out FILE additionally appends each
// notification as one wire frame of the subscription codec;
// -subscribe-frames FILE registers client-encoded registration frames
// (pisd-client -subscribe-out).
//
//	pisd-server -addr 127.0.0.1:7001 -shards 2 &
//	pisd-frontend -cloud 127.0.0.1:7001,127.0.0.1:7002 \
//	    -users 2000 -subscribe 100 -churn 60
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pisd"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pisd-frontend:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cloudAddr = flag.String("cloud", "127.0.0.1:7001", "cloud server address")
		keysFile  = flag.String("keys", "", "key file: loaded if present, written after fresh key generation (keep it secret)")
		users     = flag.Int("users", 5000, "population size")
		dim       = flag.Int("dim", 500, "profile dimensionality")
		topics    = flag.Int("topics", 0, "interest topics in the population (0: scale with population size)")
		k         = flag.Int("k", 5, "recommendations per discovery")
		discover  = flag.String("discover", "1", "comma-separated target user ids")
		attach    = flag.Bool("attach", false, "attach to a pisd-segbuild index instead of building (requires the build's -keys file and -users)")
		seed      = flag.Int64("seed", 1, "population seed")
		obsAddr   = flag.String("obs", "", "observability HTTP address for /metrics and /debug/pprof; keeps the process alive until interrupted (empty: disabled)")

		conns       = flag.Int("conns-per-shard", 4, "pooled connections per shard server")
		maxInflight = flag.Int("max-inflight", 256, "admitted concurrent discoveries (0: unbounded)")
		cacheSize   = flag.Int("cache", 4096, "search-pattern result cache entries (0: disabled)")

		replicas = flag.Int("replicas", 1, "replicas per shard: the -cloud list is grouped into consecutive runs of R addresses, reads fail over inside each group")
		probeIvl = flag.Duration("probe-interval", time.Second, "health-probe cadence for replica demotion/re-admission (with -replicas > 1)")
		waves    = flag.Int("waves", 1, "repetitions of the discovery wave (sustained load for failover demos)")

		dynamic   = flag.Bool("dynamic", false, "build the updatable index and serve through the cached dynamic path")
		subscribe = flag.Int("subscribe", 0, "standing top-k subscriptions to register for users 1..N (implies -dynamic)")
		subFrames = flag.String("subscribe-frames", "", "register client-encoded registration frames from this file (pisd-client -subscribe-out; implies -dynamic)")
		churn     = flag.Int("churn", 0, "churn-wave operations against the live dynamic index (implies -dynamic)")
		notifyOut = flag.String("notify-out", "", "append each notification as one subscription-codec wire frame to this file (decode with pisd-client -notifications)")
	)
	flag.Parse()
	if *subscribe > 0 || *churn > 0 || *subFrames != "" {
		*dynamic = true
	}

	servingCfg := pisd.ServingConfig{
		MaxInflight:  *maxInflight,
		CacheEntries: *cacheSize,
	}

	if *obsAddr != "" {
		bound, err := pisd.ServeMetrics(pisd.Metrics, *obsAddr)
		if err != nil {
			return fmt.Errorf("observability endpoint: %w", err)
		}
		fmt.Printf("observability endpoint on http://%s (/metrics, /debug/pprof/)\n", bound)
	}

	if *topics == 0 {
		*topics = dataset.AutoTopics(*users)
	}
	// This config literal is shared verbatim with pisd-segbuild: -attach
	// regenerates the population deterministically, so the two tools must
	// agree on it for the same flags. Dynamic mode appends a spare-profile
	// pool beyond the population — the churn wave's fresh users — which
	// leaves the first -users profiles identical.
	extra := 0
	if *dynamic {
		extra = *churn
	}
	ds, err := dataset.Generate(dataset.Config{
		Users: *users + extra, Dim: *dim, Topics: *topics, TopicsPerUser: 2,
		ActiveWords: *dim / 12, Noise: 0.02, PersonalWeight: 0.6, Seed: *seed,
	})
	if err != nil {
		return err
	}

	// Derive the LSH atom count from -users the same way pisd-segbuild
	// does, so -attach computes trapdoors under the hash family the
	// segmented index was built with.
	cfg := pisd.FrontendConfigForPopulation(*dim, *users)
	var sf *pisd.Frontend
	if *keysFile != "" {
		if blob, err := os.ReadFile(*keysFile); err == nil {
			sf, err = frontend.NewWithKeys(cfg, blob)
			if err != nil {
				return fmt.Errorf("restore keys from %s: %w", *keysFile, err)
			}
			fmt.Printf("restored keys from %s\n", *keysFile)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	if *attach && sf == nil {
		return errors.New("-attach requires -keys pointing at the key file pisd-segbuild wrote")
	}
	if sf == nil {
		var err error
		sf, err = pisd.NewFrontend(cfg)
		if err != nil {
			return err
		}
		if *keysFile != "" {
			blob, err := sf.ExportKeys()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*keysFile, blob, 0o600); err != nil {
				return fmt.Errorf("persist keys: %w", err)
			}
			fmt.Printf("generated fresh keys and saved them to %s\n", *keysFile)
		}
	}
	var uploads []pisd.Upload
	if !*attach && !*dynamic {
		// Attach mode issues trapdoors only; no uploads are (re)hashed.
		// Dynamic mode builds its own uploads over the population (the
		// spare churn profiles stay out of the initial index).
		uploads = make([]pisd.Upload, len(ds.Profiles))
		for i, p := range ds.Profiles {
			uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
		}
	}

	addrs := splitList(*cloudAddr)
	if len(addrs) == 0 {
		return errors.New("no cloud address given")
	}
	if *replicas < 1 {
		return fmt.Errorf("replicas must be >= 1, got %d", *replicas)
	}
	if len(addrs)%*replicas != 0 {
		return fmt.Errorf("%d cloud addresses do not divide into groups of %d replicas", len(addrs), *replicas)
	}
	if *dynamic {
		if *attach {
			return errors.New("-attach does not support -dynamic")
		}
		opts := dynOptions{
			subscribe:       *subscribe,
			subscribeFrames: *subFrames,
			churn:           *churn,
			notifyOut:       *notifyOut,
			conns:           *conns,
			replicas:        *replicas,
			serving:         servingCfg,
		}
		if err := runDynamic(sf, ds, addrs, *users, *k, *discover, opts); err != nil {
			return err
		}
		return lingerIfObs(*obsAddr)
	}
	if len(addrs) > 1 {
		if *attach {
			return errors.New("-attach supports a single cloud server")
		}
		if err := runSharded(sf, ds, uploads, addrs, *k, *discover, *conns, *replicas, *probeIvl, *waves, servingCfg); err != nil {
			return err
		}
		return lingerIfObs(*obsAddr)
	}

	client, err := pisd.DialCloud(addrs[0])
	if err != nil {
		return err
	}
	defer client.Close()

	if *attach {
		if err := sf.AttachSegmented(*users); err != nil {
			return err
		}
		fmt.Printf("attached to segmented index over %d users at %s\n", *users, addrs[0])
	} else {
		buildStart := time.Now()
		idx, encProfiles, err := sf.BuildIndex(uploads)
		if err != nil {
			return err
		}
		fmt.Printf("built secure index over %d users in %s (%.1f MB)\n",
			len(uploads), time.Since(buildStart).Round(time.Millisecond),
			float64(idx.SizeBytes())/(1<<20))
		if err := client.InstallIndex(idx); err != nil {
			return err
		}
		if err := client.PutProfiles(encProfiles); err != nil {
			return err
		}
		fmt.Printf("outsourced index and %d encrypted profiles to %s\n", len(encProfiles), *cloudAddr)
	}

	targets, err := parseTargets(*discover, len(ds.Profiles))
	if err != nil {
		return err
	}
	serving, err := sf.NewServing(pisd.SingleFanout{S: client}, servingCfg)
	if err != nil {
		return err
	}
	if err := discoverServing(serving, ds, targets, *k); err != nil {
		return err
	}
	sent, recv := client.Traffic()
	fmt.Printf("\ntotal traffic: %.1f KB sent, %.1f KB received\n",
		float64(sent)/1024, float64(recv)/1024)
	return lingerIfObs(*obsAddr)
}

// lingerIfObs keeps the process alive until interrupted when the
// observability endpoint is enabled, so /metrics stays scrapeable after
// the discoveries complete (the CI smoke step depends on this).
func lingerIfObs(obsAddr string) error {
	if obsAddr == "" {
		return nil
	}
	fmt.Println("\nobservability endpoint active; press Ctrl-C to exit")
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	return nil
}

// runSharded is the multi-shard deployment path: one projected index per
// partition, discoveries fanned out to all partitions in parallel. With
// replicas > 1 the address list is grouped into consecutive runs of R
// addresses; each run becomes one failover replica group behind the pool,
// with a background health prober driving demotion and re-admission.
func runSharded(sf *pisd.Frontend, ds *dataset.Dataset, uploads []pisd.Upload, addrs []string, k int, discover string, conns, replicas int, probeIvl time.Duration, waves int, servingCfg pisd.ServingConfig) error {
	partitions := len(addrs) / replicas
	remotes := make([]*pisd.RemoteShard, len(addrs))
	for i, addr := range addrs {
		r := pisd.NewRemoteShard(addr)
		r.SetConns(conns)
		defer r.Close()
		remotes[i] = r
	}
	nodes := make([]pisd.ShardNode, partitions)
	if replicas == 1 {
		for i, r := range remotes {
			nodes[i] = r
		}
	} else {
		groups := make([]*pisd.ReplicaGroup, partitions)
		for g := 0; g < partitions; g++ {
			members := make([]pisd.ReplicaNode, replicas)
			for r := 0; r < replicas; r++ {
				members[r] = remotes[g*replicas+r]
			}
			grp, err := pisd.NewReplicaGroup(g, pisd.ReplicaGroupConfig{}, members...)
			if err != nil {
				return err
			}
			groups[g] = grp
			nodes[g] = grp
		}
		prober := pisd.NewHealthProber(pisd.HealthProberConfig{Interval: probeIvl}, groups...)
		prober.Start()
		defer prober.Stop()
		fmt.Printf("replicated fleet: %d partitions x %d replicas, probing every %s\n",
			partitions, replicas, probeIvl)
	}
	pool, err := pisd.NewShardPool(pisd.DefaultShardPoolConfig(), nodes...)
	if err != nil {
		return err
	}

	buildStart := time.Now()
	shards, err := sf.BuildShardedIndex(uploads, partitions, nil)
	if err != nil {
		return err
	}
	var indexBytes int
	for _, sh := range shards {
		indexBytes += sh.Index.SizeBytes()
	}
	fmt.Printf("built %d-shard secure index over %d users in %s (%.1f MB total)\n",
		len(shards), len(uploads), time.Since(buildStart).Round(time.Millisecond),
		float64(indexBytes)/(1<<20))
	for s, sh := range shards {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			return err
		}
		fmt.Printf("shard %d: outsourced index and %d encrypted profiles to %s\n",
			s, len(sh.EncProfiles), strings.Join(addrs[s*replicas:(s+1)*replicas], ","))
	}

	targets, err := parseTargets(discover, len(ds.Profiles))
	if err != nil {
		return err
	}
	serving, err := sf.NewServing(pool, servingCfg)
	if err != nil {
		return err
	}
	for w := 0; w < waves; w++ {
		if waves > 1 {
			fmt.Printf("\n--- wave %d/%d ---\n", w+1, waves)
		}
		if err := discoverServing(serving, ds, targets, k); err != nil {
			return err
		}
	}
	var sent, recv int64
	for _, r := range remotes {
		s, rv := r.Traffic()
		sent += s
		recv += rv
	}
	fmt.Printf("\ntotal traffic: %.1f KB sent, %.1f KB received across %d shards\n",
		float64(sent)/1024, float64(recv)/1024, len(addrs))
	return nil
}

// discoverServing runs the targets through the multi-core serving path:
// distinct targets are issued concurrently, and repeated targets are
// issued in a second wave so they demonstrably hit the search-pattern
// result cache.
// Results are printed in target order.
func discoverServing(serving *pisd.Serving, ds *dataset.Dataset, targets []uint64, k int) error {
	type outcome struct {
		matches []pisd.Match
		partial bool
		took    time.Duration
		err     error
	}
	outs := make([]outcome, len(targets))
	start := time.Now()
	seen := make(map[uint64]bool, len(targets))
	var firstWave, repeatWave []int
	for i, id := range targets {
		if seen[id] {
			repeatWave = append(repeatWave, i)
			continue
		}
		seen[id] = true
		firstWave = append(firstWave, i)
	}
	runWave := func(wave []int) {
		var wg sync.WaitGroup
		for _, i := range wave {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := targets[i]
				qs := time.Now()
				m, partial, err := serving.Discover(context.Background(), ds.Profiles[id-1], k, id)
				outs[i] = outcome{matches: m, partial: partial, took: time.Since(qs), err: err}
			}(i)
		}
		wg.Wait()
	}
	runWave(firstWave)
	runWave(repeatWave)
	fmt.Printf("\nserving-path discovery for %d users took %s:\n",
		len(targets), time.Since(start).Round(time.Microsecond))
	for i, id := range targets {
		o := outs[i]
		if o.err != nil {
			return fmt.Errorf("discover user %d: %w", id, o.err)
		}
		note := ""
		if o.partial {
			note = " [PARTIAL: one or more shards unreachable]"
		}
		fmt.Printf("\nuser %d (topics %v) in %s%s:\n",
			id, ds.UserTopics[id-1], o.took.Round(time.Microsecond), note)
		printMatches(ds, o.matches)
	}
	return nil
}

func printMatches(ds *dataset.Dataset, matches []pisd.Match) {
	for rank, m := range matches {
		fmt.Printf("  %d. user %-6d distance %.4f topics %v\n",
			rank+1, m.ID, m.Distance, ds.UserTopics[m.ID-1])
	}
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// parseTargets parses the -discover id list against the population size.
func parseTargets(discover string, n int) ([]uint64, error) {
	var out []uint64
	for _, tok := range splitList(discover) {
		id, err := strconv.ParseUint(tok, 10, 64)
		if err != nil || id == 0 || id > uint64(n) {
			return nil, fmt.Errorf("invalid target user %q", tok)
		}
		out = append(out, id)
	}
	return out, nil
}
