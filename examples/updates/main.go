// User profile update (Sec. III-D): build the dynamic secure index, then
// run secure deletion and secure insertion when a user's interests change
// — every touched bucket is re-masked so the cloud cannot tell which
// bucket actually changed.
//
//	go run ./examples/updates
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
	ds, err := dataset.Generate(dataset.Config{
		Users: 1500, Dim: 400, Topics: 15, TopicsPerUser: 2,
		ActiveWords: 40, Noise: 0.02, Seed: 11,
	})
	if err != nil {
		return err
	}

	cfg := pisd.DefaultFrontendConfig(400)
	sf, err := pisd.NewFrontend(cfg)
	if err != nil {
		return err
	}
	cs := pisd.NewCloud()

	uploads := make([]pisd.Upload, len(ds.Profiles))
	for i, p := range ds.Profiles {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
	}
	dynIdx, dynClient, encProfiles, err := sf.BuildDynamicIndex(uploads)
	if err != nil {
		return err
	}
	cs.SetDynIndex(dynIdx)
	cs.PutProfiles(encProfiles)
	fmt.Printf("dynamic index over %d users installed at the cloud\n", len(uploads))
	// The dynamic serving path over the one node; a zero ServingConfig
	// runs it without a result cache.
	shards := []pisd.DynShard{{Client: dynClient}}
	nodes := []pisd.DynNode{pisd.NewLocalShard(cs)}
	dyn, err := sf.NewDynServing(shards, nodes, nil, pisd.ServingConfig{})
	if err != nil {
		return err
	}

	// User 42's current interests.
	const userID = 42
	oldProfile := ds.Profiles[userID-1]
	matches, _, err := dyn.Search(oldProfile, 5, userID)
	if err != nil {
		return err
	}
	fmt.Printf("before update, user %d (topics %v) matches:\n", userID, ds.UserTopics[userID-1])
	printMatches(matches, ds)

	// The user uploads new pictures: adopt user 900's interest profile.
	newProfile := ds.Profiles[899]
	fmt.Printf("\nuser %d updates interests to topics %v\n", userID, ds.UserTopics[899])

	// Secure deletion of the outdated profile...
	if err := dyn.Delete(userID, oldProfile); err != nil {
		return err
	}
	// ...then secure insertion of the new one.
	if err := dyn.Insert(userID, newProfile); err != nil {
		return err
	}

	matches, _, err = dyn.Search(newProfile, 5, userID)
	if err != nil {
		return err
	}
	fmt.Printf("after update, user %d matches:\n", userID)
	printMatches(matches, ds)

	st := dynClient.Stats()
	fmt.Printf("\nupdate protocol stats: %d interaction rounds, %d kick-aways\n", st.Rounds, st.Kicks)
	return nil
}

func printMatches(matches []pisd.Match, ds *dataset.Dataset) {
	for rank, m := range matches {
		fmt.Printf("  %d. user %-5d distance %.4f topics %v\n",
			rank+1, m.ID, m.Distance, ds.UserTopics[m.ID-1])
	}
}
