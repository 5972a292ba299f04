package cloud

import (
	"pisd/internal/obs"

	"pisd/internal/core"
)

// serverMetrics is the cloud tier's metric surface (names under "cloud.").
// The buckets_unmasked counter is the paper's constant-bandwidth claim as
// a live signal: SecRec adds the trapdoor's actual entry count per query
// and compares it against the index's l·(d+1)+stash budget — any query
// touching a different number of buckets increments
// leakage_invariant_violations, which must stay at zero for the lifetime
// of a deployment. All handles are nil-safe; a Server built without a
// registry records nothing.
type serverMetrics struct {
	secrecNs        *obs.Histogram // per-query unmask latency on the in-RAM index (segments time theirs as segstore.load)
	batchNs         *obs.Histogram // SecRecBatch whole-batch latency
	queries         *obs.Counter   // SecRec sub-queries answered
	bucketsUnmasked *obs.Counter   // total buckets unmasked across queries
	invariantViol   *obs.Counter   // queries whose bucket count != BucketsPerQuery
	dynFetched      *obs.Counter   // dynamic buckets fetched
	dynStored       *obs.Counter   // dynamic buckets stored
	profilesServed  *obs.Counter   // encrypted profiles attached to results
}

func newServerMetrics(r *obs.Registry, prefix string) serverMetrics {
	if r == nil {
		return serverMetrics{}
	}
	return serverMetrics{
		secrecNs:        r.Histogram(prefix + "secrec"),
		batchNs:         r.Histogram(prefix + "secrec_batch"),
		queries:         r.Counter(prefix + "queries"),
		bucketsUnmasked: r.Counter(prefix + "buckets_unmasked"),
		invariantViol:   r.Counter(prefix + "leakage_invariant_violations"),
		dynFetched:      r.Counter(prefix + "dyn_buckets_fetched"),
		dynStored:       r.Counter(prefix + "dyn_buckets_stored"),
		profilesServed:  r.Counter(prefix + "profiles_served"),
	}
}

// SetRegistry registers the server's metrics in r under the "cloud."
// prefix (nil r disables them). Call during setup, before serving.
func (s *Server) SetRegistry(r *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = newServerMetrics(r, "cloud.")
}

// recordQuery accounts one answered SecRec sub-query: the number of
// buckets the trapdoor addressed and whether it matched the backend's
// fixed per-query budget p. Caller holds at least a read lock.
func (s *Server) recordQuery(t *core.Trapdoor, p core.Params) {
	if s.met.queries == nil {
		return
	}
	n := t.Entries()
	s.met.queries.Inc()
	s.met.bucketsUnmasked.Add(int64(n))
	if n != p.BucketsPerQuery() {
		s.met.invariantViol.Inc()
	}
}
