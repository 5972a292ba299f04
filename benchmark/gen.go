package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"

	"pisd/internal/dataset"
)

// Everything the system under test receives is generated here from the
// run's seed: the population, the order targets are visited in, the Zipf
// draws, the churn script and the open-loop arrival times. The program
// itself is never handed the seed (only a key seed string derived from it,
// so the same seed reproduces the same index).

// subSeed derives an independent generator seed for one named stream, so
// that adding a stream never shifts the draws of another.
func subSeed(seed int64, stream string, lane int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, lane)
	return int64(h.Sum64() >> 1)
}

// genPopulation generates the member profiles of a deployment followed by
// spare profiles the churn script re-inserts with.
func genPopulation(sc scale, seed int64, spare int) (*dataset.Dataset, error) {
	cfg := dataset.DefaultConfig(sc.Users + spare)
	cfg.Dim = sc.Dim
	cfg.ActiveWords = max(4, sc.Dim/12)
	cfg.Seed = subSeed(seed, "population", 0)
	return dataset.Generate(cfg)
}

// targetGen yields the member index each discovery of one client targets.
type targetGen interface {
	next() int
}

// sweepGen visits a seeded permutation of the members cyclically. The
// cursor is shared by every client and lane of a run and carries over from
// one phase to the next, so a target recurs only after all the others have
// been visited, however the phases divide the time.
type sweepGen struct {
	perm   []int
	cursor atomic.Uint64
}

func newSweepGen(seed int64, members int) *sweepGen {
	return &sweepGen{perm: rand.New(rand.NewSource(subSeed(seed, "sweep", 0))).Perm(members)}
}

func (g *sweepGen) next() int {
	return g.perm[(g.cursor.Add(1)-1)%uint64(len(g.perm))]
}

// zipfS is the popularity skew of the Zipf workloads.
const zipfS = 1.1

// zipfGen draws members with Zipf(zipfS) popularity. The rank → member
// mapping is one seeded permutation shared by every stream of a run, so
// all clients agree on which members are popular; the draws themselves are
// per stream.
type zipfGen struct {
	z    *rand.Zipf
	perm []int
}

func newZipfGen(seed int64, members int, stream string, lane int) *zipfGen {
	rng := rand.New(rand.NewSource(subSeed(seed, stream, lane)))
	return &zipfGen{z: rand.NewZipf(rng, zipfS, 1, uint64(members-1)), perm: zipfRanks(seed, members)}
}

// zipfRanks returns the members in order of popularity, most popular
// first.
func zipfRanks(seed int64, members int) []int {
	return rand.New(rand.NewSource(subSeed(seed, "zipf-rank", 0))).Perm(members)
}

func (g *zipfGen) next() int { return g.perm[g.z.Uint64()] }

type opKind uint8

const (
	opDiscover opKind = iota
	opDelete
	opInsert
	numKinds
)

// dynOp is one scripted operation of the churn workload. Target and
// Profile index the generated population (members first, then spares).
type dynOp struct {
	Kind    opKind
	ID      uint64 // the user deleted or inserted; for a search, the excluded id
	Target  int    // search: profile index searched for
	Profile int    // insert/delete: profile index the id carries
}

// dynGen scripts one client of the churn workload: 80 % searches on Zipf
// targets, 10 % deletes of a live owned id, 10 % re-inserts of a deleted
// owned id under a profile no live user carries. Client c owns the ids
// congruent to c+1 modulo C, so scripts of different clients never touch
// the same id and each script's state depends on the seed alone. One
// generator runs through warm-up, the closed loop and the open loop, since
// each phase starts from the membership the previous one left.
type dynGen struct {
	rng     *rand.Rand
	targets *zipfGen
	live    []uint64       // owned ids currently in the index
	dead    []uint64       // owned ids currently deleted, oldest first
	profile map[uint64]int // current profile index of each owned id
	free    []int          // profile indices no live user carries, oldest first
}

// maxDead bounds how many owned ids a client keeps deleted at once, so the
// live population stays within maxDead·C of its initial size.
const maxDead = 16

func newDynGen(seed int64, members, spare, client, clients int) *dynGen {
	g := &dynGen{
		rng:     rand.New(rand.NewSource(subSeed(seed, "churn-mix", client))),
		targets: newZipfGen(seed, members, "churn-targets", client),
		profile: make(map[uint64]int),
	}
	for i := 0; i < members; i++ {
		if i%clients == client {
			id := uint64(i + 1)
			g.live = append(g.live, id)
			g.profile[id] = i
		}
	}
	for i := members; i < members+spare; i++ {
		if i%clients == client {
			g.free = append(g.free, i)
		}
	}
	return g
}

func (g *dynGen) next() dynOp {
	r := g.rng.Intn(10)
	switch {
	case r == 0 && len(g.dead) < maxDead, r == 1 && len(g.dead) == 0:
		i := g.rng.Intn(len(g.live))
		id := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		g.dead = append(g.dead, id)
		p := g.profile[id]
		g.free = append(g.free, p)
		return dynOp{Kind: opDelete, ID: id, Profile: p}
	case r <= 1:
		id := g.dead[0]
		g.dead = g.dead[1:]
		p := g.free[0]
		g.free = g.free[1:]
		g.live = append(g.live, id)
		g.profile[id] = p
		return dynOp{Kind: opInsert, ID: id, Profile: p}
	default:
		t := g.targets.next()
		return dynOp{Kind: opDiscover, ID: uint64(t + 1), Target: t}
	}
}

// arrivals yields the due times, in seconds from the start of an open-loop
// phase, of one lane's Poisson arrival stream. They are a pure function of
// (seed, workload stream, lane, rate).
type arrivals struct {
	rng  *rand.Rand
	rate float64
	t    float64
}

func newArrivals(seed int64, stream string, lane int, ratePerLane float64) *arrivals {
	return &arrivals{rng: rand.New(rand.NewSource(subSeed(seed, stream+"-arrivals", lane))), rate: ratePerLane}
}

func (a *arrivals) next() float64 {
	a.t += a.rng.ExpFloat64() / a.rate
	return a.t
}

// openLanes is the number of independent arrival streams of a workload's
// open-loop phase. The churn workload has one per script owner, because a
// script's deletes and re-inserts must run in order.
func openLanes(sc scale, workload string, clients int) int {
	if workload == "dyn-churn" {
		return clients
	}
	return sc.OpenLanes
}

// scriptHash digests the first ops operations of every client's script and
// the first ops due times of every open-loop lane of a workload: the
// fingerprint the determinism test compares across seeds.
func scriptHash(sc scale, workload string, seed int64, clients, ops int) (string, error) {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	var gens []func() uint64
	switch workload {
	case "static-sweep", "ingest-build":
		members := sc.Users
		if workload == "ingest-build" {
			members = sc.IngestTargets
		}
		g := newSweepGen(seed, members)
		gens = append(gens, func() uint64 { return uint64(g.next()) })
	case "static-zipf":
		for c := 0; c < clients; c++ {
			g := newZipfGen(seed, sc.Users, "closed", c)
			gens = append(gens, func() uint64 { return uint64(g.next()) })
		}
	case "dyn-churn":
		for c := 0; c < clients; c++ {
			g := newDynGen(seed, sc.Users, sc.Spare, c, clients)
			gens = append(gens, func() uint64 {
				op := g.next()
				return uint64(op.Kind)<<56 ^ op.ID<<28 ^ uint64(op.Target)<<14 ^ uint64(op.Profile)
			})
		}
	default:
		return "", fmt.Errorf("unknown workload %q", workload)
	}
	for _, g := range gens {
		for i := 0; i < ops; i++ {
			put(g())
		}
	}
	lanes := openLanes(sc, workload, clients)
	for lane := 0; lane < lanes; lane++ {
		a := newArrivals(seed, workload, lane, sc.OpenRate[workload]/float64(lanes))
		for i := 0; i < ops; i++ {
			put(uint64(a.next() * 1e9))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
