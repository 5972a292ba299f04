// Package cloud implements the untrusted, honest-but-curious cloud server
// CS of the paper's architecture (Fig. 1): the off-premise backend that
// stores encrypted images and encrypted image profiles, hosts the secure
// index, and serves SecRec discovery requests and dynamic bucket updates —
// all without ever holding key material.
package cloud

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pisd/internal/core"
	"pisd/internal/obs"
	"pisd/internal/segstore"
)

// ErrNoIndex is returned when a request needs an index that has not been
// installed yet.
var ErrNoIndex = errors.New("cloud: no index installed")

// Server is the cloud server state. All methods are safe for concurrent
// use.
type Server struct {
	mu       sync.RWMutex
	idx      *core.Index
	segs     *segstore.Store
	dyn      *core.DynIndex
	profiles map[uint64][]byte
	images   map[uint64][][]byte
	// secScratch pools SecRec working state (dedup set, unmask buffer) so
	// a shard answering its slice of a fanned-out query allocates nothing
	// per request beyond the result slices.
	secScratch sync.Pool
	met        serverMetrics
	// version is the last write version recorded by the trusted front
	// end; see replica.go. Guarded by mu.
	version uint64
}

// Compile-time check: the server exposes the dynamic scheme's bucket
// store surface.
var _ core.BucketStore = (*Server)(nil)

// New returns an empty cloud server.
func New() *Server {
	return &Server{
		profiles: make(map[uint64][]byte),
		images:   make(map[uint64][][]byte),
		met:      newServerMetrics(obs.Default, "cloud."),
	}
}

// Ping reports liveness; the in-process counterpart of the transport
// protocol's Ping, so local and remote cloud servers expose the same
// health surface to a shard pool.
func (s *Server) Ping() error { return nil }

// SetIndex installs the static secure index.
func (s *Server) SetIndex(idx *core.Index) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx = idx
}

// SetSegmentStore installs a segmented index store as the static index
// backend. While installed it takes precedence over an in-RAM index:
// SecRecBatch fans trapdoors across the store's live segments, reading
// bucket ranges from disk on demand, with results byte-identical to the
// monolithic path. Pass nil to detach.
func (s *Server) SetSegmentStore(st *segstore.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segs = st
}

// SegmentStore returns the installed segmented store (nil if none).
func (s *Server) SegmentStore() *segstore.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs
}

// SetDynIndex installs the dynamic secure index.
func (s *Server) SetDynIndex(idx *core.DynIndex) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dyn = idx
}

// PutProfile stores one encrypted profile S*.
func (s *Server) PutProfile(id uint64, ct []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profiles[id] = append([]byte(nil), ct...)
}

// PutProfiles stores a batch of encrypted profiles.
func (s *Server) PutProfiles(cts map[uint64][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, ct := range cts {
		s.profiles[id] = append([]byte(nil), ct...)
	}
}

// DeleteProfile removes an encrypted profile (secure deletion, Sec. III-D:
// "The identifier Li is also passed to CS to remove the encrypted S*").
func (s *Server) DeleteProfile(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.profiles, id)
}

// NumProfiles reports how many encrypted profiles are stored.
func (s *Server) NumProfiles() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.profiles)
}

// SecRecBatch implements M ← SecRec(t, I) for a batch of trapdoors in one
// pass under a single index read-lock: each query unmasks its addressed
// buckets of the static index and returns the recovered identifiers
// together with the referenced encrypted profiles. Per-query results do not
// depend on what else rides in the batch; the first failing query fails
// the batch. A single discovery is a batch of one.
func (s *Server) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	start := time.Now()
	idLists, p, err := s.recoverIDs(ts)
	if err != nil {
		return nil, nil, err
	}
	outIDs := make([][]uint64, len(ts))
	outProfiles := make([][][]byte, len(ts))
	for q, ids := range idLists {
		s.recordQuery(ts[q], p)
		outIDs[q], outProfiles[q] = s.attachProfiles(ids)
	}
	s.met.batchNs.ObserveSince(start)
	return outIDs, outProfiles, nil
}

// SecRec is SecRecBatch for one trapdoor.
func (s *Server) SecRec(t *core.Trapdoor) ([]uint64, [][]byte, error) {
	ids, profiles, err := s.SecRecBatch(context.TODO(), []*core.Trapdoor{t})
	if err != nil {
		return nil, nil, err
	}
	return ids[0], profiles[0], nil
}

// recoverIDs unmasks every trapdoor against the installed static backend
// and reports that backend's per-query bucket budget. The segmented store
// takes precedence and answers the whole batch from one segment snapshot
// (every sub-query sees the same live set even under concurrent
// compaction), byte-identical to the in-RAM index, which reuses ONE pooled
// unmask scratch across the batch. Caller holds s.mu for reading.
func (s *Server) recoverIDs(ts []*core.Trapdoor) ([][]uint64, core.Params, error) {
	if s.segs != nil {
		idLists, err := s.segs.SecRecBatch(ts)
		if err != nil {
			return nil, core.Params{}, fmt.Errorf("cloud: %w", err)
		}
		return idLists, s.segs.Params(), nil
	}
	if s.idx == nil {
		return nil, core.Params{}, ErrNoIndex
	}
	sc, _ := s.secScratch.Get().(*core.SecRecScratch)
	if sc == nil {
		sc = core.NewSecRecScratch(s.idx.Params())
	}
	defer s.secScratch.Put(sc)
	idLists := make([][]uint64, len(ts))
	for q, t := range ts {
		qStart := time.Now()
		var err error
		if idLists[q], err = s.idx.SecRecWith(t, sc); err != nil {
			return nil, core.Params{}, fmt.Errorf("cloud: batch query %d: %w", q, err)
		}
		s.met.secrecNs.ObserveSince(qStart)
	}
	return idLists, s.idx.Params(), nil
}

// attachProfiles pairs recovered identifiers with their stored encrypted
// profiles, skipping identifiers whose profile is missing (consistent with
// buckets that decoded from stale state). Caller holds s.mu.
func (s *Server) attachProfiles(ids []uint64) ([]uint64, [][]byte) {
	outIDs := make([]uint64, 0, len(ids))
	outProfiles := make([][]byte, 0, len(ids))
	for _, id := range ids {
		ct, ok := s.profiles[id]
		if !ok {
			continue
		}
		outIDs = append(outIDs, id)
		outProfiles = append(outProfiles, ct)
	}
	s.met.profilesServed.Add(int64(len(outIDs)))
	return outIDs, outProfiles
}

// FetchProfiles returns the encrypted profiles of the given identifiers,
// the second interaction of a dynamic-scheme search and the subscription
// re-score read. The result is aligned with the request and tolerates
// gaps: an unknown identifier yields an empty entry, so one profile
// deleted since the caller learned its identifier does not fail the rest
// of the batch. Present entries are never empty (ciphertexts carry at
// least their MAC), so len(out[i]) == 0 means ids[i] is unknown here;
// callers that need every profile check for it.
func (s *Server) FetchProfiles(ids []uint64) ([][]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][]byte, len(ids))
	served := 0
	for i, id := range ids {
		if ct, ok := s.profiles[id]; ok {
			out[i] = ct
			served++
		}
	}
	s.met.profilesServed.Add(int64(served))
	return out, nil
}

// FetchBuckets implements core.BucketStore over the installed dynamic
// index.
func (s *Server) FetchBuckets(refs []core.BucketRef) ([]core.DynBucket, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.dyn == nil {
		return nil, ErrNoIndex
	}
	s.met.dynFetched.Add(int64(len(refs)))
	return s.dyn.FetchBuckets(refs)
}

// StoreBuckets implements core.BucketStore over the installed dynamic
// index.
func (s *Server) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dyn == nil {
		return ErrNoIndex
	}
	s.met.dynStored.Add(int64(len(refs)))
	return s.dyn.StoreBuckets(refs, buckets)
}

// StoreImages appends encrypted image blobs for a user (Step 1 of the
// service flow: users upload encrypted images directly to CS).
func (s *Server) StoreImages(id uint64, blobs ...[]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range blobs {
		s.images[id] = append(s.images[id], append([]byte(nil), b...))
	}
}

// Images returns copies of a user's stored encrypted images.
func (s *Server) Images(id uint64) [][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][]byte, len(s.images[id]))
	for i, b := range s.images[id] {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// IndexSizeBytes reports the installed static index footprint (0 if none):
// the on-disk byte total of the segmented store when one is installed,
// otherwise the in-RAM index size.
func (s *Server) IndexSizeBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.segs != nil {
		return int(s.segs.Bytes())
	}
	if s.idx == nil {
		return 0
	}
	return s.idx.SizeBytes()
}
