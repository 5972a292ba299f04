// Command pisd-frontend runs the trusted service front end SF against a
// remote cloud server: it generates (or accepts) a user population, builds
// the secure index, outsources it with the encrypted profiles over TCP,
// and runs privacy-preserving discoveries.
//
//	pisd-server &                                  # terminal 1
//	pisd-frontend -cloud 127.0.0.1:7001 -users 5000 -discover 1,2,3
//
// A comma-separated -cloud list shards the deployment: users are
// partitioned across the servers (id mod S), one projected secure index is
// installed per shard, and every discovery fans out to all shards in
// parallel. Results that could not reach every shard are marked partial.
// A single address is the one-shard case of the same path.
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
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pisd-frontend:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	flags := flag.NewFlagSet("pisd-frontend", flag.ContinueOnError)
	var (
		cloudAddr = flags.String("cloud", "127.0.0.1:7001", "cloud server address")
		keysFile  = flags.String("keys", "", "key file: loaded if present, written after fresh key generation (keep it secret)")
		users     = flags.Int("users", 5000, "population size")
		dim       = flags.Int("dim", 500, "profile dimensionality")
		topics    = flags.Int("topics", 0, "interest topics in the population (0: scale with population size)")
		k         = flags.Int("k", 5, "recommendations per discovery")
		discover  = flags.String("discover", "1", "comma-separated target user ids")
		attach    = flags.Bool("attach", false, "attach to a pisd-segbuild index instead of building (requires the build's -keys file and -users)")
		seed      = flags.Int64("seed", 1, "population seed")
		obsAddr   = flags.String("obs", "", "observability HTTP address for /metrics and /debug/pprof; keeps the process alive until interrupted (empty: disabled)")

		conns       = flags.Int("conns-per-shard", 4, "pooled connections per shard server")
		maxInflight = flags.Int("max-inflight", 256, "admitted concurrent discoveries (0: unbounded)")
		cacheSize   = flags.Int("cache", 4096, "search-pattern result cache entries (0: disabled)")

		replicas = flags.Int("replicas", 1, "replicas per shard: the -cloud list is grouped into consecutive runs of R addresses, reads fail over inside each group")
		probeIvl = flags.Duration("probe-interval", time.Second, "health-probe cadence for replica demotion/re-admission (with -replicas > 1)")
		waves    = flags.Int("waves", 1, "repetitions of the discovery wave (sustained load for failover demos)")

		dynamic   = flags.Bool("dynamic", false, "build the updatable index and serve through the cached dynamic path")
		subscribe = flags.Int("subscribe", 0, "standing top-k subscriptions to register for users 1..N (implies -dynamic)")
		subFrames = flags.String("subscribe-frames", "", "register client-encoded registration frames from this file (pisd-client -subscribe-out; implies -dynamic)")
		churn     = flags.Int("churn", 0, "churn-wave operations against the live dynamic index (implies -dynamic)")
		notifyOut = flags.String("notify-out", "", "append each notification as one subscription-codec wire frame to this file (decode with pisd-client -notifications)")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
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
		fmt.Fprintf(out, "observability endpoint on http://%s (/metrics, /debug/pprof/)\n", bound)
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
			fmt.Fprintf(out, "restored keys from %s\n", *keysFile)
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
			fmt.Fprintf(out, "generated fresh keys and saved them to %s\n", *keysFile)
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
	if *attach && *dynamic {
		return errors.New("-attach does not support -dynamic")
	}
	if *attach && len(addrs) > 1 {
		return errors.New("-attach supports a single cloud server")
	}
	fl, err := newFleet(addrs, *conns, *replicas)
	if err != nil {
		return err
	}
	defer fl.close()
	if *dynamic {
		opts := dynOptions{
			subscribe:       *subscribe,
			subscribeFrames: *subFrames,
			churn:           *churn,
			notifyOut:       *notifyOut,
			serving:         servingCfg,
		}
		err = runDynamic(out, sf, ds, fl, *users, *k, *discover, opts)
	} else {
		err = runStatic(out, sf, ds, fl, *attach, *users, *k, *discover, *probeIvl, *waves, servingCfg)
	}
	if err != nil {
		return err
	}
	fl.printTraffic(out)
	return lingerIfObs(out, *obsAddr)
}

// lingerIfObs keeps the process alive until interrupted when the
// observability endpoint is enabled, so /metrics stays scrapeable after
// the discoveries complete (the CI smoke step depends on this).
func lingerIfObs(out io.Writer, obsAddr string) error {
	if obsAddr == "" {
		return nil
	}
	fmt.Fprintln(out, "\nobservability endpoint active; press Ctrl-C to exit")
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	return nil
}

// fleet is the cloud tier the -cloud list names: one RemoteShard per
// address and, with R replicas, one ReplicaGroup per consecutive run of R
// addresses. nodes[s] is partition s either way, so a single address is a
// one-partition fleet. The static and the dynamic path both run over it.
type fleet struct {
	addrs    []string
	replicas int
	remotes  []*pisd.RemoteShard
	groups   []*pisd.ReplicaGroup // nil without replication
	nodes    []pisd.ShardNode
	prober   *pisd.HealthProber
}

func newFleet(addrs []string, conns, replicas int) (*fleet, error) {
	fl := &fleet{addrs: addrs, replicas: replicas}
	for _, addr := range addrs {
		r := pisd.NewRemoteShard(addr)
		r.SetConns(conns)
		fl.remotes = append(fl.remotes, r)
		if replicas == 1 {
			fl.nodes = append(fl.nodes, r)
		}
	}
	for g := 0; replicas > 1 && g < len(addrs)/replicas; g++ {
		members := make([]pisd.ReplicaNode, replicas)
		for i := range members {
			members[i] = fl.remotes[g*replicas+i]
		}
		grp, err := pisd.NewReplicaGroup(g, pisd.ReplicaGroupConfig{}, members...)
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.groups = append(fl.groups, grp)
		fl.nodes = append(fl.nodes, grp)
	}
	return fl, nil
}

// probe starts the health prober over the replica groups, if any.
func (fl *fleet) probe(out io.Writer, interval time.Duration) {
	if fl.groups == nil {
		return
	}
	fl.prober = pisd.NewHealthProber(pisd.HealthProberConfig{Interval: interval}, fl.groups...)
	fl.prober.Start()
	fmt.Fprintf(out, "replicated fleet: %d partitions x %d replicas, probing every %s\n",
		len(fl.groups), fl.replicas, interval)
}

// servers names partition s's addresses.
func (fl *fleet) servers(s int) string {
	return strings.Join(fl.addrs[s*fl.replicas:(s+1)*fl.replicas], ",")
}

func (fl *fleet) printTraffic(out io.Writer) {
	var sent, recv int64
	for _, r := range fl.remotes {
		s, rv := r.Traffic()
		sent += s
		recv += rv
	}
	fmt.Fprintf(out, "\ntotal traffic: %.1f KB sent, %.1f KB received across %d cloud server(s)\n",
		float64(sent)/1024, float64(recv)/1024, len(fl.addrs))
}

func (fl *fleet) close() {
	if fl.prober != nil {
		fl.prober.Stop()
	}
	for _, r := range fl.remotes {
		r.Close()
	}
}

// runStatic is the static deployment path: one projected index per
// partition, discoveries fanned out to all partitions in parallel. With
// attach it builds nothing and serves the segmented index a single server
// already holds. With replica groups a background health prober drives
// demotion and re-admission.
func runStatic(out io.Writer, sf *pisd.Frontend, ds *dataset.Dataset, fl *fleet, attach bool, users, k int, discover string, probeIvl time.Duration, waves int, servingCfg pisd.ServingConfig) error {
	fl.probe(out, probeIvl)
	pool, err := pisd.NewShardPool(pisd.DefaultShardPoolConfig(), fl.nodes...)
	if err != nil {
		return err
	}
	if attach {
		if err := sf.AttachSegmented(users); err != nil {
			return err
		}
		fmt.Fprintf(out, "attached to segmented index over %d users at %s\n", users, fl.servers(0))
	} else if err := buildStatic(out, sf, ds, fl, pool); err != nil {
		return err
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
			fmt.Fprintf(out, "\n--- wave %d/%d ---\n", w+1, waves)
		}
		if err := discoverServing(out, serving, ds, targets, k); err != nil {
			return err
		}
	}
	return nil
}

// buildStatic builds the partitioned index over the whole population and
// installs each partition's index and profiles.
func buildStatic(out io.Writer, sf *pisd.Frontend, ds *dataset.Dataset, fl *fleet, pool *pisd.ShardPool) error {
	uploads := make([]pisd.Upload, len(ds.Profiles))
	for i, p := range ds.Profiles {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
	}
	buildStart := time.Now()
	shards, err := sf.BuildShardedIndex(uploads, len(fl.nodes), nil)
	if err != nil {
		return err
	}
	var indexBytes int
	for _, sh := range shards {
		indexBytes += sh.Index.SizeBytes()
	}
	fmt.Fprintf(out, "built %d-shard secure index over %d users in %s (%.1f MB total)\n",
		len(shards), len(uploads), time.Since(buildStart).Round(time.Millisecond),
		float64(indexBytes)/(1<<20))
	for s, sh := range shards {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			return err
		}
		fmt.Fprintf(out, "shard %d: outsourced index and %d encrypted profiles to %s\n",
			s, len(sh.EncProfiles), fl.servers(s))
	}
	return nil
}

// discoverServing runs the targets through the multi-core serving path:
// distinct targets are issued concurrently, and repeated targets are
// issued in a second wave so they demonstrably hit the search-pattern
// result cache.
// Results are printed in target order.
func discoverServing(out io.Writer, serving *pisd.Serving, ds *dataset.Dataset, targets []uint64, k int) error {
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
	fmt.Fprintf(out, "\nserving-path discovery for %d users took %s:\n",
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
		fmt.Fprintf(out, "\nuser %d (topics %v) in %s%s:\n",
			id, ds.UserTopics[id-1], o.took.Round(time.Microsecond), note)
		printMatches(out, ds, o.matches)
	}
	return nil
}

func printMatches(out io.Writer, ds *dataset.Dataset, matches []pisd.Match) {
	for rank, m := range matches {
		fmt.Fprintf(out, "  %d. user %-6d distance %.4f topics %v\n",
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
