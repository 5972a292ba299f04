// Group discovery: the paper's second motivating application — finding
// social groups with shared interests from encrypted profiles. The front
// end runs its ordinary privacy-preserving per-user discovery and clusters
// the mutual neighbourhoods; the cloud sees nothing beyond trapdoors.
//
//	go run ./examples/groups
package main

import (
	"fmt"
	"log"

	"pisd"
	"pisd/internal/dataset"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A population with pronounced interest communities.
	ds, err := dataset.Generate(dataset.Config{
		Users: 1200, Dim: 400, Topics: 12, TopicsPerUser: 1,
		ActiveWords: 40, Noise: 0.02, PersonalWeight: 0.3, Seed: 21,
	})
	if err != nil {
		return err
	}

	// Wide LSH neighbourhoods, so a discovery reaches a whole interest
	// community. Three atoms keep 88–114 distinct hash values per table
	// (the hottest shared by 117 of the 1200 users); two atoms leave
	// 28–38, the hottest shared by 258 users, far more than the d+1
	// positions per table it addresses can hold: the cuckoo build then
	// fails on some keys.
	cfg := pisd.DefaultSystemConfig(400)
	cfg.Frontend.LSH.Atoms = 3
	cfg.Frontend.LSH.Width = 0.8
	cfg.Frontend.ProbeRange = 8
	sys, err := pisd.NewSystem(cfg)
	if err != nil {
		return err
	}
	uploads := make([]pisd.Upload, len(ds.Profiles))
	for i, p := range ds.Profiles {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sys.SF.ComputeMeta(p)}
	}
	if err := sys.AddProfiles(uploads); err != nil {
		return err
	}

	// Discover groups across the whole population: one ordinary
	// privacy-preserving discovery per user, then mutual-kNN clustering.
	members := make(map[uint64][]float64, len(ds.Profiles))
	for i, p := range ds.Profiles {
		members[uint64(i+1)] = p
	}
	opts := pisd.DefaultGroupOptions()
	opts.MinSize = 4
	groups, err := sys.DiscoverGroups(members, 6, opts)
	if err != nil {
		return err
	}

	fmt.Printf("discovered %d social groups among %d users:\n\n", len(groups), len(members))
	show := groups
	if len(show) > 8 {
		show = show[:8]
	}
	for gi, g := range show {
		// Majority topic of the group, for the human-readable label.
		counts := map[int]int{}
		for _, m := range g.Members {
			for _, t := range ds.UserTopics[m-1] {
				counts[t]++
			}
		}
		best, bestN := -1, 0
		for t, n := range counts {
			if n > bestN {
				best, bestN = t, n
			}
		}
		fmt.Printf("group %d: %d members, cohesion %.3f, dominant topic %d (%d/%d members)\n",
			gi+1, len(g.Members), g.Cohesion, best, bestN, len(g.Members))
		fmt.Printf("  members: %v\n", g.Members)
	}
	return nil
}
