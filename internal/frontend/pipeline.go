package frontend

import (
	"context"
	"errors"
	"fmt"

	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/lsh"
	"pisd/internal/obs"
	"pisd/internal/vec"
)

// The one discovery pipeline (DESIGN.md §19): candidate source
// (fetchStatic | fetchDynamic) → decrypt once → rank. Every entry point
// composes these stages; deployments differ only in the fan-out the source
// is handed and whether the result cache sits in front of it.

// candidates is the pipeline's unit of work and the result cache's unit
// of storage: one query's recovered identifiers, their profiles decrypted
// once (tags name the ciphertexts they came from; nil without a cache), and
// whether a shard was missing. Pre-rank, so it serves every k.
type candidates struct {
	ids     []uint64
	tags    []profileTag
	vecs    [][]float64
	partial bool
}

// FanoutBatchServer is the cloud surface the static source drives: one
// exchange resolving q trapdoors — a single discovery is a batch of one —
// with result q depending on trapdoor q alone, partial when some shards
// are down. shard.Pool implements it.
type FanoutBatchServer interface {
	SecRecBatch(ctx context.Context, ts []*core.Trapdoor) (ids [][]uint64, encProfiles [][][]byte, partial bool, err error)
}

// BatchDiscoveryServer is one cloud node's side of that exchange.
// cloud.Server, the transport client and every shard.Node implement it.
type BatchDiscoveryServer interface {
	SecRecBatch(ctx context.Context, ts []*core.Trapdoor) (ids [][]uint64, encProfiles [][][]byte, err error)
}

// SingleFanout is one cloud node as a never-partial 1-shard fan-out.
type SingleFanout struct {
	S BatchDiscoveryServer
}

// SecRecBatch implements FanoutBatchServer.
func (a SingleFanout) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, bool, error) {
	ids, profiles, err := a.S.SecRecBatch(ctx, ts)
	return ids, profiles, false, err
}

// fetchStatic is the static candidate source: one SecRecBatch exchange
// resolving every trapdoor, then each answer decrypted (through cache's
// profile table when there is one). It closes the span's fanout stage; the
// caller closes decrypt.
func (f *Frontend) fetchStatic(ctx context.Context, pool FanoutBatchServer, cache *ResultCache, tds []*core.Trapdoor, sp *obs.Span) ([]candidates, error) {
	ids, encProfiles, partial, err := pool.SecRecBatch(ctx, tds)
	if err != nil {
		return nil, fmt.Errorf("frontend: discovery request: %w", err)
	}
	if len(ids) != len(tds) || len(encProfiles) != len(tds) {
		return nil, fmt.Errorf("frontend: %d trapdoors answered with %d results", len(tds), len(ids))
	}
	sp.Mark("fanout", fmet.fanoutNs)
	out := make([]candidates, len(tds))
	err = parallelFor(len(tds), func(q int) (err error) {
		out[q], err = f.decryptProfiles(cache, candidates{ids: ids[q]}, encProfiles[q])
		out[q].partial = partial
		return err
	})
	return out, err
}

// ErrUnknownProfile reports a profile the index named but the cloud's
// profile store does not hold.
var ErrUnknownProfile = errors.New("frontend: unknown profile")

// fetchAll is the strict profile read, for callers that need every
// profile they name (a search's candidates, a repair's mirror): the gap
// FetchProfiles tolerates is ErrUnknownProfile here.
func fetchAll(fetch ProfileFetcher, ids []uint64) ([][]byte, error) {
	cts, err := fetch.FetchProfiles(ids)
	if err != nil {
		return nil, err
	}
	if len(cts) != len(ids) {
		return nil, fmt.Errorf("frontend: fetched %d profiles for %d ids", len(cts), len(ids))
	}
	for i, ct := range cts {
		if len(ct) == 0 {
			return nil, fmt.Errorf("%w: %d", ErrUnknownProfile, ids[i])
		}
	}
	return cts, nil
}

// dynAnswer is one shard's part of a dynamic miss: the ids its bucket read
// recovered, in Search order, and per id either the ciphertext its profile
// leg fetched or — for an id the held set answered — no ciphertext and its
// tag and vector; at is where the answer starts in the merged candidates.
type dynAnswer struct {
	ids  []uint64
	cts  [][]byte
	tags []profileTag
	vecs [][]float64
	at   int
}

// read runs one shard's search leg: the bucket read, then a profile read
// from the same node of only the ids cache's held set does not cover —
// none at all when it covers every one.
func (a *dynAnswer) read(client *core.DynClient, node DynNode, cache *ResultCache, meta lsh.Metadata) (err error) {
	if a.ids, err = client.Search(node, meta); err != nil {
		return err
	}
	a.vecs = make([][]float64, len(a.ids))
	if cache != nil {
		a.tags = make([]profileTag, len(a.ids))
	}
	fetch := cache.elide(a.ids, a.tags, a.vecs)
	fmet.profElided.Add(int64(len(a.ids) - len(fetch)))
	a.cts = make([][]byte, len(a.ids))
	if len(fetch) == 0 {
		return nil
	}
	cts, err := fetchAll(node, fetch)
	if err != nil {
		return err
	}
	for i := range a.ids {
		if a.vecs[i] == nil {
			a.cts[i], cts = cts[0], cts[1:]
		}
	}
	return nil
}

// fetchDynamic is the dynamic candidate source: every shard's client
// searches its own bucket store and fetches there the matching profiles the
// held set does not cover, concurrently; answers merge in shard order and
// are decrypted (through the profile table when there is a cache). Each
// profile leg that crossed the wire then joins the held set, in shard
// order. Failed shards are skipped (partial); only all shards failing is an
// error. It closes the span's fanout stage; the caller closes decrypt.
func (s *DynServing) fetchDynamic(meta lsh.Metadata, sp *obs.Span) (candidates, error) {
	answers := make([]dynAnswer, len(s.clients))
	errs := perShard(len(s.clients), func(sh int) error {
		return answers[sh].read(s.clients[sh], s.nodes[sh], s.cache, meta)
	})
	var c candidates
	var encProfiles [][]byte
	var firstErr error
	failed := 0
	for sh, err := range errs {
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", sh, err)
			}
			continue
		}
		a := &answers[sh]
		a.at = len(c.ids)
		c.ids = append(c.ids, a.ids...)
		c.tags = append(c.tags, a.tags...)
		c.vecs = append(c.vecs, a.vecs...)
		encProfiles = append(encProfiles, a.cts...)
	}
	if failed == len(s.clients) {
		return candidates{}, fmt.Errorf("frontend: dynamic search: all %d shards failed: %w", len(s.clients), firstErr)
	}
	sp.Mark("fanout", fmet.fanoutNs)
	c, err := s.f.decryptProfiles(s.cache, c, encProfiles)
	c.partial = failed > 0
	if err != nil || s.cache == nil {
		return c, err
	}
	for sh, a := range answers {
		if errs[sh] == nil {
			end := a.at + len(a.ids)
			s.cache.hold(a.ids, a.cts, c.tags[a.at:end], c.vecs[a.at:end])
		}
	}
	return c, nil
}

// decryptProfiles is the pipeline's one decrypt step over c's candidates,
// encProfiles[i] being candidate i's ciphertext. A profile whose tag
// cache's table already holds reuses the vector the frontend decrypted and
// authenticated when it first saw that ciphertext — as does a slot the held
// set filled before the fetch, which carries its tag and vector and no
// ciphertext; only unseen tags pay MAC + AES-CTR + decode, parallel across
// candidates. The frontend is trusted and holds KS, so plaintext in its
// memory adds no leakage — which lets the result cache store the output
// and spare every hit, and every miss over known profiles, the
// per-candidate work. A nil cache decrypts everything.
func (f *Frontend) decryptProfiles(cache *ResultCache, c candidates, encProfiles [][]byte) (candidates, error) {
	if len(c.ids) != len(encProfiles) {
		return candidates{}, fmt.Errorf("frontend: %d ids but %d profiles", len(c.ids), len(encProfiles))
	}
	if c.vecs == nil {
		c.vecs = make([][]float64, len(c.ids))
	}
	if cache != nil && c.tags == nil {
		c.tags = make([]profileTag, len(c.ids))
	}
	reused := cache.held(encProfiles, c.tags, c.vecs)
	fmet.profReused.Add(int64(reused))
	fmet.profDecrypted.Add(int64(len(c.ids) - reused))
	if reused == len(c.ids) {
		return c, nil
	}
	err := parallelFor(len(c.ids), func(i int) error {
		if c.vecs[i] != nil {
			return nil
		}
		s, err := crypt.DecProfile(f.keys.KS, encProfiles[i])
		if err != nil {
			return fmt.Errorf("frontend: decrypt match %d: %w", c.ids[i], err)
		}
		c.vecs[i] = s
		return nil
	})
	return c, err
}

// rank is GetRec's ordering step: exact Euclidean distance to the target,
// top-k. Candidates reach the heap in candidate order, so the output is
// deterministic — and identical across routes — even when distances tie.
func rank(target []float64, c candidates, k int, excludeID uint64) []Match {
	tk := vec.NewTopK(k)
	for i, id := range c.ids {
		if excludeID != 0 && id == excludeID {
			continue
		}
		tk.Offer(id, vec.Distance(target, c.vecs[i]))
	}
	scored := tk.Sorted()
	out := make([]Match, len(scored))
	for i, s := range scored {
		out[i] = Match{ID: s.ID, Distance: s.Score}
	}
	return out
}

// finish is the tail every route shares: close the decrypt stage, rank
// each query (across CPUs when there are several), close the span into
// the route's end-to-end histogram, count. excludeIDs may be nil.
func finish(sp *obs.Span, total *obs.Histogram, targets [][]float64, cands []candidates, k int, excludeIDs []uint64) (matches [][]Match, partial bool) {
	sp.Mark("decrypt", fmet.decryptNs)
	matches = make([][]Match, len(targets))
	// rank cannot fail, so neither can the fan-out over it.
	_ = parallelFor(len(targets), func(q int) error {
		var exclude uint64
		if excludeIDs != nil {
			exclude = excludeIDs[q]
		}
		matches[q] = rank(targets[q], cands[q], k, exclude)
		return nil
	})
	sp.Mark("rank", fmet.rankNs)
	sp.Finish(total)
	fmet.discoveries.Add(int64(len(targets)))
	for _, c := range cands {
		partial = partial || c.partial
	}
	if partial {
		fmet.partials.Inc()
	}
	return matches, partial
}

// finishOne is finish for a single query.
func finishOne(sp *obs.Span, total *obs.Histogram, target []float64, c candidates, k int, excludeID uint64) ([]Match, bool) {
	matches, partial := finish(sp, total, [][]float64{target}, []candidates{c}, k, []uint64{excludeID})
	return matches[0], partial
}
