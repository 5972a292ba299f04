package main

// The metric and workload tables. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; TestSpecMatchesJSON
// keeps the two from drifting.

// metricSpec names one reported metric. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"static-sweep", "Cyclic sweep over 10000 members, 2.4x the 4096-entry result cache: every discovery misses and pays trapdoor, gob wire, cloud unmask, ciphertext return and decrypt."},
	{"static-zipf", "Same deployment and code path, Zipf(1.1) targets on a warm cache: most discoveries are cache hits that never touch the wire, so lsh, trapdoor, cache and rank dominate."},
	{"dyn-churn", "Dynamic scheme, 2 replica groups x 2 replicas, 256 subscriptions, 80/10/10 search/delete/insert: writes beside reads - re-sealing, replica fan-out, cache invalidation, subscription evaluation."},
	{"ingest-build", "Usr-tier upload pipeline plus the streaming segment build of 100000 users, then discoveries served from segments: the only workload where surf, bow, cuckoo placement and segstore do the work."},
}

// endToEnd is reported by every workload with --trace 0. Every metric is
// defined on every workload (see README.md for what it measures on each).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"discover_p50_ms", "ms", "lower", 0.25},
	{"discover_p99_ms", "ms", "lower", 0.25},
	{"open_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"wire_bytes_per_op", "B", "lower", 0.15},
	{"index_bytes_per_user", "B", "lower", 0.02},
	{"accuracy_ratio", "ratio", "higher", 0.10},
	{"usr_upload_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is reported by every workload with --trace 1. A metric in a
// unit of time is measured on every workload. A layer only some workloads
// exercise is reported as a count or as its share of the operation in %
// (absolute time = share × replay.op_us, or × the update's latency), and
// reads 0 on a workload whose operations never reach it.
var perLayer = []metricSpec{
	// Untraced closed loop (C clients) and open loop of the traced run.
	{"closed.discover_p50_ms", "ms", "lower", 0},
	{"closed.discover_p99_ms", "ms", "lower", 0},
	{"update.p50_per_discover_p50", "ratio", "lower", 0},
	{"update.p99_per_discover_p99", "ratio", "lower", 0},
	{"open_p99_ms", "ms", "lower", 0},
	{"gen_late_p99_ms", "ms", "lower", 0},
	{"recall_at_10", "ratio", "higher", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"frontend.cache.hit_ratio", "ratio", "higher", 0},
	{"frontend.cache.invalidations_per_update", "count", "lower", 0},
	{"frontend.coalesce.batch_mean", "count", "higher", 0},
	{"frontend.coalesce.flushes_per_op", "count", "lower", 0},
	{"frontend.admission.rejected", "count", "lower", 0},
	{"cloud.profiles_served_per_op", "count", "lower", 0},
	{"cloud.leakage_invariant_violations", "count", "lower", 0},
	{"crypt.dec_auth_fail", "count", "lower", 0},
	{"shard.retries_per_op", "count", "lower", 0},
	{"replica.failovers", "count", "lower", 0},
	{"replica.lag", "count", "lower", 0},
	{"cloud.dyn_buckets_fetched_per_op", "count", "lower", 0},
	{"cloud.dyn_buckets_stored_per_update", "count", "lower", 0},
	{"subs.evals_per_update", "count", "lower", 0},
	{"subs.notifications_per_update", "count", "lower", 0},
	// Staged single-client replay of a discovery's miss path: the stage
	// budget. Stages every workload's discovery has, in microseconds.
	{"replay.op_us", "us", "lower", 0},
	{"lsh.hash_us", "us", "lower", 0},
	{"crypt.decrypt_us", "us", "lower", 0},
	{"crypt.decrypt_us_per_profile", "us", "lower", 0},
	{"vec.rank_us", "us", "lower", 0},
	{"frontend.cache.miss_us", "us", "lower", 0},
	{"frontend.serving_overhead_us", "us", "lower", 0},
	// Stages of the static scheme's discovery, in % of replay.op_us, and
	// the probes of one shard's leg and cloud server.
	{"core.trapdoor_pct", "%", "lower", 0},
	{"shard.fanout_pct", "%", "lower", 0},
	{"shard.fanout_self_pct", "%", "lower", 0},
	{"transport.leg_pct", "%", "lower", 0},
	{"transport.self_pct", "%", "lower", 0},
	{"cloud.secrec_pct", "%", "lower", 0},
	{"core.trapdoor_bytes", "B", "lower", 0},
	{"crypt.prf_ops_per_op", "count", "lower", 0},
	{"cloud.buckets_unmasked_per_op", "count", "lower", 0},
	{"transport.bytes_out_per_op", "B", "lower", 0},
	{"transport.bytes_in_per_op", "B", "lower", 0},
	{"transport.frames_per_op", "count", "lower", 0},
	{"frontend.cache.hit_cost_pct", "%", "lower", 0},
	{"trace.stage_sum_pct", "%", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	// Stages of the dynamic scheme's search, in % of replay.op_us, and of
	// its updates, in % of the update.
	{"core.dyn.search_pct", "%", "lower", 0},
	{"shard.fetch_profiles_pct", "%", "lower", 0},
	{"core.dyn.rounds_per_op", "count", "lower", 0},
	{"core.dyn.kicks_per_insert", "count", "lower", 0},
	{"core.dyn.update_self_pct", "%", "lower", 0},
	{"replica.writes_fanout_pct", "%", "lower", 0},
	{"subs.eval_pct", "%", "lower", 0},
	// Usr tier (every workload) and segment build.
	{"surf.extract_ms_per_image", "ms", "lower", 0},
	{"surf.descriptors_per_image", "count", "higher", 0},
	{"bow.profile_ms_per_user", "ms", "lower", 0},
	{"crypt.enc_profile_us", "us", "lower", 0},
	{"segstore.finish_pct", "%", "lower", 0},
	{"segstore.segments", "count", "lower", 0},
	{"segstore.bytes_per_user", "B", "lower", 0},
	{"cuckoo.kicks_per_user", "count", "lower", 0},
	{"cuckoo.stash_used", "count", "lower", 0},
}

// scale fixes the input sizes of a run. The full preset is what
// BENCHMARK.json measures; smoke is the same code on inputs small enough
// for `go test`.
type scale struct {
	Name string

	Users      int // members of the static and dynamic deployments
	Dim        int // profile dimension of those deployments
	Spare      int // extra profiles the churn script re-inserts with
	Subs       int // standing subscriptions on dyn-churn
	SetupReps  int // timed set-ups per untraced run; the median is reported
	ZipfWarm   int // Zipf draws that run the filled cache in on static-zipf
	DynWarm    int // script ops that pre-warm the cache on dyn-churn
	QualityN   int // targets compared with brute force for accuracy_ratio
	VerifyDyn  int // quiesced searches checked on dyn-churn
	UsrUsers   int // Usr-tier uploads timed per run
	UsrImages  int // images per upload
	ImageSide  int // pixels
	VocabWords int // visual words; also the Usr-tier profile dimension

	IngestUsers   int // streamed population of ingest-build
	IngestDim     int
	IngestChunk   int // uploads per AddUploads call, one segment each
	IngestTargets int // members kept as discovery targets (> cache size at full scale)

	// OpenRate is the offered rate of the open-loop phase in ops/s, frozen
	// at a fifth to a quarter of the closed-loop ops_per_s calibrated on
	// the reference box (README.md). OpenLanes is the number of
	// independent arrival streams it is spread over.
	OpenRate  map[string]float64
	OpenLanes int

	Watchdog int // seconds after which a run aborts without a result
}

var scales = map[string]scale{
	"full": {
		Name:  "full",
		Users: 10000, Dim: 1000, Spare: 2000, Subs: 256, SetupReps: 3,
		ZipfWarm: 2000, DynWarm: 3000, QualityN: 100, VerifyDyn: 200,
		UsrUsers: 48, UsrImages: 5, ImageSide: 128, VocabWords: 1000,
		IngestUsers: 100000, IngestDim: 200, IngestChunk: 10000, IngestTargets: 8000,
		OpenRate: map[string]float64{
			"static-sweep": 250, "static-zipf": 1500, "dyn-churn": 400, "ingest-build": 300,
		},
		OpenLanes: 8,
		Watchdog:  170,
	},
	"smoke": {
		Name:  "smoke",
		Users: 5000, Dim: 64, Spare: 200, Subs: 16, SetupReps: 2,
		ZipfWarm: 300, DynWarm: 200, QualityN: 20, VerifyDyn: 20,
		UsrUsers: 2, UsrImages: 2, ImageSide: 64, VocabWords: 64,
		IngestUsers: 2000, IngestDim: 32, IngestChunk: 500, IngestTargets: 300,
		OpenRate: map[string]float64{
			"static-sweep": 200, "static-zipf": 400, "dyn-churn": 200, "ingest-build": 200,
		},
		OpenLanes: 4,
		Watchdog:  60,
	},
}
