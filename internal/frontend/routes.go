package frontend

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"

	"pisd/internal/core"
	"pisd/internal/fof"
	"pisd/internal/lsh"
	"pisd/internal/obs"
)

// Discover runs the full privacy-preserving discovery flow for a target
// profile: trapdoor → SecRec at the cloud → decrypt matches → exact
// distance ranking → top-k recommendations (GetRec). excludeID removes the
// target's own identifier from the results (pass 0 to keep everything).
// It is Serving.Discover, without gate or cache, over the node as a
// never-partial 1-shard fan-out.
func (f *Frontend) Discover(server BatchDiscoveryServer, targetProfile []float64, k int, excludeID uint64) ([]Match, error) {
	matches, _, err := (&Serving{f: f, fan: SingleFanout{S: server}}).Discover(context.Background(), targetProfile, k, excludeID)
	return matches, err
}

// DiscoverBatch runs the discovery flow for many target profiles in one
// cloud exchange: DiscoverShardedBatch over a single node. Result q is
// byte-identical to Discover(server, targets[q], k, excludeIDs[q]) against
// the same server.
//
// DiscoverBatch amortises round-trip and framing cost over the batch; it
// does not add decoys (see DiscoverWithDecoys for the privacy batching).
func (f *Frontend) DiscoverBatch(server BatchDiscoveryServer, targets [][]float64, k int, excludeIDs []uint64) ([][]Match, error) {
	matches, _, err := f.DiscoverShardedBatch(context.Background(), SingleFanout{S: server}, targets, k, excludeIDs)
	return matches, err
}

// DiscoverShardedBatch runs batched discovery against a sharded cloud
// tier: parallel trapdoor generation → one SecRecBatch call per shard →
// per-query decrypt/rank fanned out across CPUs. Result q is byte-identical
// to Serving.Discover(ctx, targets[q], k, excludeIDs[q]) over the same pool
// and set of healthy shards; partial reports that one or more shards were
// skipped for the whole batch. excludeIDs may be nil, or aligned with
// targets (0 = no exclusion).
func (f *Frontend) DiscoverShardedBatch(ctx context.Context, pool FanoutBatchServer, targets [][]float64, k int, excludeIDs []uint64) ([][]Match, bool, error) {
	if len(targets) == 0 {
		return nil, false, fmt.Errorf("frontend: no targets")
	}
	if excludeIDs != nil && len(excludeIDs) != len(targets) {
		return nil, false, fmt.Errorf("frontend: %d targets but %d exclude ids", len(targets), len(excludeIDs))
	}
	var sp obs.Span
	sp.StartTraced(obs.TraceFrom(ctx))
	tds, err := f.Trapdoors(targets)
	if err != nil {
		return nil, false, err
	}
	sp.Mark("trapdoor", fmet.trapdoorNs)
	cands, err := f.fetchStatic(ctx, pool, nil, tds, &sp)
	if err != nil {
		return nil, false, err
	}
	matches, partial := finish(&sp, fmet.batchNs, targets, cands, k, excludeIDs)
	fmet.batches.Inc()
	return matches, partial, nil
}

// fetchMetas issues one trapdoor per metadata vector against a single
// node in one SecRecBatch, in order (the cloud's view is that of the same
// trapdoors sent one by one, DESIGN.md §11). It closes trapdoor and fanout.
func (f *Frontend) fetchMetas(server BatchDiscoveryServer, metas []lsh.Metadata, sp *obs.Span) ([]candidates, error) {
	tds := make([]*core.Trapdoor, len(metas))
	for i, m := range metas {
		var err error
		if tds[i], err = f.TrapdoorForMeta(m); err != nil {
			return nil, err
		}
	}
	sp.Mark("trapdoor", fmet.trapdoorNs)
	return f.fetchStatic(context.Background(), SingleFanout{S: server}, nil, tds, sp)
}

// DiscoverMultiProbe is Discover with query-directed multi-probe recall
// (Lv et al., the paper's [19]): besides the exact trapdoor it issues
// trapdoors for the `variants` cheapest neighbouring-bucket metadata
// vectors, merges the recovered candidates into one set (each identifier
// at its first occurrence, probe by probe) and ranks that. Each variant
// costs one additional constant-bandwidth trapdoor in the same exchange,
// buying recall — the same accuracy/bandwidth dial as raising d or l
// (Fig. 5(c)), but tunable per query without rebuilding the index.
func (f *Frontend) DiscoverMultiProbe(server BatchDiscoveryServer, targetProfile []float64, k int, excludeID uint64, variants int) ([]Match, error) {
	if variants < 0 {
		return nil, fmt.Errorf("frontend: negative variant count")
	}
	meta, err := f.hash(targetProfile)
	if err != nil {
		return nil, err
	}
	var sp obs.Span
	sp.Start()
	metas := []lsh.Metadata{meta}
	for _, pv := range f.family.ProbeSequence(targetProfile, variants) {
		metas = append(metas, pv.Meta)
	}
	probes, err := f.fetchMetas(server, metas, &sp)
	if err != nil {
		return nil, err
	}
	var merged candidates
	seen := make(map[uint64]struct{})
	for _, p := range probes {
		for i, id := range p.ids {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				merged.ids = append(merged.ids, id)
				merged.vecs = append(merged.vecs, p.vecs[i])
			}
		}
	}
	matches, _ := finishOne(&sp, fmet.discoverNs, targetProfile, merged, k, excludeID)
	return matches, nil
}

// DiscoverWithDecoys implements the paper's batched-discovery mitigation
// (Sec. IV remark): deterministic trapdoors leak the similarity-search
// pattern, and the paper suggests that "to mitigate such statistical
// information leakage, one trick is to batch the social discovery requests
// for multiple randomly selected target users at once". It interleaves the
// real targets' trapdoors with decoy trapdoors for random metadata in a
// shuffled order, issues them all, and drops the decoys' candidates. The
// cloud observes a larger anonymity set per round at the cost of
// proportionally more bandwidth (exactly the trade-off the paper names).
//
// rng draws the decoys and the shuffle; nil seeds one from crypto/rand, so
// rounds never repeat their decoys (a cloud intersecting rounds that did
// would strip them). Pass a seeded rng only for reproducible tests.
//
// DiscoverWithDecoys is a privacy mechanism; for a throughput mechanism
// that amortises round trips over many real queries see DiscoverBatch.
func (f *Frontend) DiscoverWithDecoys(server BatchDiscoveryServer, targets [][]float64, k, decoys int, rng *rand.Rand) ([][]Match, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("frontend: no targets")
	}
	if decoys < 0 {
		return nil, fmt.Errorf("frontend: negative decoy count")
	}
	if rng == nil {
		var seed [8]byte
		if _, err := crand.Read(seed[:]); err != nil {
			return nil, fmt.Errorf("frontend: seed decoy generator: %w", err)
		}
		rng = rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
	}
	var sp obs.Span
	sp.Start()
	metas := make([]lsh.Metadata, len(targets)+decoys)
	for i := range metas {
		if i < len(targets) {
			var err error
			if metas[i], err = f.hash(targets[i]); err != nil {
				return nil, fmt.Errorf("frontend: target %d: %w", i, err)
			}
			continue
		}
		metas[i] = make(lsh.Metadata, f.cfg.LSH.Tables)
		for j := range metas[i] {
			metas[i][j] = rng.Uint64()
		}
	}
	// Slot i carries metas[order[i]]: position tells the cloud nothing.
	order := rng.Perm(len(metas))
	shuffled := make([]lsh.Metadata, len(metas))
	for i, j := range order {
		shuffled[i] = metas[j]
	}
	round, err := f.fetchMetas(server, shuffled, &sp)
	if err != nil {
		return nil, err
	}
	real := make([]candidates, len(targets))
	for i, j := range order {
		if j < len(targets) {
			real[j] = round[i] // a decoy's candidates are dropped
		}
	}
	matches, _ := finish(&sp, fmet.batchNs, targets, real, k, nil)
	fmet.batches.Inc()
	return matches, nil
}

// BoostFoF is the friend-of-friend stage (Sec. III-C): among distance-
// ranked matches, friends-of-friends of the target are promoted and the
// list is cut to k. It owns no cloud call, so it composes with every
// route: pass it 2k matches that exclude targetID.
func BoostFoF(graph *fof.Graph, targetID uint64, matches []Match, k int) []Match {
	ids := make([]uint64, len(matches))
	byID := make(map[uint64]Match, len(matches))
	for i, m := range matches {
		ids[i] = m.ID
		byID[m.ID] = m
	}
	boosted := graph.Boost(targetID, ids)
	if len(boosted) > k {
		boosted = boosted[:k]
	}
	out := make([]Match, len(boosted))
	for i, id := range boosted {
		out[i] = byID[id]
	}
	return out
}
