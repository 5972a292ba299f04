package frontend

import (
	"pisd/internal/obs"
)

// fmet is the front-end tier's metric surface (names under "frontend.").
// The four stage histograms decompose every discovery the way the paper's
// evaluation does — trapdoor generation, cloud exchange, match
// decryption, distance ranking — so a Snapshot() diff over any workload
// yields the per-stage latency breakdown live (EXPERIMENTS.md). All
// handles are nil-safe; SetRegistry(nil) is the disabled mode.
var fmet struct {
	discoverNs *obs.Histogram // end-to-end single discovery
	batchNs    *obs.Histogram // end-to-end batched discovery (whole batch)
	trapdoorNs *obs.Histogram // stage: GenTpdr (batch: all trapdoors)
	fanoutNs   *obs.Histogram // stage: cloud SecRec exchange / shard fan-out
	decryptNs  *obs.Histogram // stage: profile decryption + distance eval
	rankNs     *obs.Histogram // stage: top-k selection
	dynNs      *obs.Histogram // end-to-end dynamic search

	discoveries *obs.Counter // discoveries completed (a batch of q counts q)
	batches     *obs.Counter // batched discoveries completed
	partials    *obs.Counter // sharded discoveries degraded to partial results

	// Serving-path surface: result cache, admission gate.
	cacheHits     *obs.Counter // discoveries answered from the result cache
	cacheMisses   *obs.Counter // discoveries that had to reach the cloud
	cacheInvalids *obs.Counter // cache entries evicted by dynamic updates
	profReused    *obs.Counter // candidate profiles served from the cache's profile table
	profDecrypted *obs.Counter // candidate profiles that paid MAC + AES-CTR + decode
	profElided    *obs.Counter // dynamic candidates answered from the held set without a fetch
	profHeld      *obs.Gauge   // distinct plaintext profiles the profile tables hold
	admitRejected *obs.Counter // discoveries rejected with ErrOverloaded
	admitInflight *obs.Gauge   // admitted discoveries currently in flight
}

func init() { SetRegistry(obs.Default) }

// SetRegistry points the front-end metrics at r (nil disables them).
// Intended for process setup and test isolation; not safe to call
// concurrently with in-flight discoveries.
func SetRegistry(r *obs.Registry) {
	fmet.discoverNs = r.Histogram("frontend.discover")
	fmet.batchNs = r.Histogram("frontend.discover_batch")
	fmet.trapdoorNs = r.Histogram("frontend.trapdoor")
	fmet.fanoutNs = r.Histogram("frontend.fanout")
	fmet.decryptNs = r.Histogram("frontend.decrypt")
	fmet.rankNs = r.Histogram("frontend.rank")
	fmet.dynNs = r.Histogram("frontend.dyn_search")
	fmet.discoveries = r.Counter("frontend.discoveries")
	fmet.batches = r.Counter("frontend.batch_discoveries")
	fmet.partials = r.Counter("frontend.partial_results")
	fmet.cacheHits = r.Counter("frontend.cache_hits")
	fmet.cacheMisses = r.Counter("frontend.cache_misses")
	fmet.cacheInvalids = r.Counter("frontend.cache_invalidations")
	fmet.profReused = r.Counter("frontend.profiles_reused")
	fmet.profDecrypted = r.Counter("frontend.profiles_decrypted")
	fmet.profElided = r.Counter("frontend.profiles_elided")
	fmet.profHeld = r.Gauge("frontend.profiles_held")
	fmet.admitRejected = r.Counter("frontend.admission_rejected")
	fmet.admitInflight = r.Gauge("frontend.admission_inflight")
}
