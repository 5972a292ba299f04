package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"pisd"
	"pisd/internal/dataset"
)

// runDynamic is the updatable-index deployment path (-dynamic): the
// population is built into sharded dynamic indexes (optionally replicated
// — the -cloud list is grouped into runs of -replicas addresses), served
// through the cached dynamic serving path, and optionally subjected to a
// standing-query workload: -subscribe N registers N top-k subscriptions,
// -churn M drives M insert/delete operations, and every standing-result
// change streams as one line (and, with -notify-out, as one wire frame of
// the subscription codec) as it happens.
func runDynamic(out io.Writer, sf *pisd.Frontend, ds *dataset.Dataset, fl *fleet, users, k int, discover string, opts dynOptions) error {
	uploads := make([]pisd.Upload, users)
	for i := 0; i < users; i++ {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: ds.Profiles[i], Meta: sf.ComputeMeta(ds.Profiles[i])}
	}

	buildStart := time.Now()
	built, err := sf.BuildShardedDynamicIndex(uploads, len(fl.nodes), nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "built %d-shard dynamic index over %d users in %s\n",
		len(built), users, time.Since(buildStart).Round(time.Millisecond))
	if fl.groups != nil {
		fmt.Fprintf(out, "replicated dynamic fleet: %d partitions x %d replicas\n", len(fl.groups), fl.replicas)
	}
	nodes := make([]pisd.DynNode, len(fl.nodes))
	for s, n := range fl.nodes {
		nodes[s] = n
		if err := n.InstallDynIndex(built[s].Index); err != nil {
			return fmt.Errorf("install dynamic index on shard %d: %w", s, err)
		}
		if err := n.PutProfiles(built[s].EncProfiles); err != nil {
			return err
		}
		fmt.Fprintf(out, "shard %d: outsourced dynamic index and %d encrypted profiles to %s\n",
			s, len(built[s].EncProfiles), fl.servers(s))
	}

	serving, err := sf.NewDynServing(built, nodes, nil, opts.serving)
	if err != nil {
		return err
	}

	// The notification stream: every standing-result change is printed as
	// it happens and, with -notify-out, round-tripped through the
	// subscription wire codec and appended to the frame file a pisd-client
	// -notifications invocation decodes.
	var notifyOut *os.File
	if opts.notifyOut != "" {
		notifyOut, err = os.Create(opts.notifyOut)
		if err != nil {
			return fmt.Errorf("notification frame file: %w", err)
		}
		defer notifyOut.Close()
	}
	notified := 0
	mgr := serving.AttachSubscriptions(func(n pisd.SubscriptionNotification) {
		notified++
		kind := "entered"
		if n.Promoted {
			kind = "promoted"
		}
		evict := ""
		if n.EvictedID != 0 {
			evict = fmt.Sprintf(" evicting user %d", n.EvictedID)
		}
		fmt.Fprintf(out, "  notify[seq %d] sub %d: user %d %s at distance %.4f%s\n",
			n.Seq, n.SubID, n.ID, kind, n.Distance, evict)
		if notifyOut != nil {
			frame := pisd.EncodeSubscriptionNotification(n)
			if _, err := notifyOut.Write(frame); err != nil {
				fmt.Fprintln(os.Stderr, "pisd-frontend: write notification frame:", err)
			}
		}
	})

	// Register the standing queries: users 1..N from flags, plus any
	// client-encoded registration frames handed over via -subscribe-frames.
	registered := 0
	for i := 1; i <= opts.subscribe; i++ {
		entries, err := serving.Subscribe(uint64(i), ds.Profiles[i-1], k)
		if err != nil {
			return fmt.Errorf("subscribe user %d: %w", i, err)
		}
		registered++
		if i <= 3 {
			fmt.Fprintf(out, "subscription %d: standing top-%d seeded with %d entries\n", i, k, len(entries))
		}
	}
	if opts.subscribeFrames != "" {
		n, err := subscribeFromFrames(serving, opts.subscribeFrames, len(ds.Profiles[0]))
		if err != nil {
			return err
		}
		registered += n
		fmt.Fprintf(out, "registered %d subscription(s) from client frames in %s\n", n, opts.subscribeFrames)
	}
	if registered > 0 {
		fmt.Fprintf(out, "%d standing quer%s registered\n", registered, plural(registered, "y", "ies"))
	}

	// The churn wave: fresh users inserted from the spare profile pool,
	// every fourth operation also deleting an earlier insert, so the
	// stream shows entries, evictions and promotions.
	if opts.churn > 0 {
		fmt.Fprintf(out, "\nchurn wave: %d operations\n", opts.churn)
		churnStart := time.Now()
		var inserted []uint64
		deletes := 0
		for j := 0; j < opts.churn; j++ {
			id := uint64(users + j + 1)
			profile := ds.Profiles[users+j]
			if err := serving.Insert(id, profile); err != nil {
				return fmt.Errorf("churn insert %d: %w", id, err)
			}
			inserted = append(inserted, id)
			if j%4 == 3 {
				victim := inserted[0]
				inserted = inserted[1:]
				if err := serving.Delete(victim, ds.Profiles[victim-1]); err != nil {
					return fmt.Errorf("churn delete %d: %w", victim, err)
				}
				deletes++
			}
		}
		fmt.Fprintf(out, "churn wave done in %s: %d inserts, %d deletes, %d notifications\n",
			time.Since(churnStart).Round(time.Millisecond), opts.churn, deletes, notified)
	}

	if registered > 0 {
		fmt.Fprintln(out, "\nfinal standing results:")
		shown := 0
		for i := 1; shown < 3 && i <= opts.subscribe; i++ {
			entries, ok := mgr.TopK(uint64(i))
			if !ok {
				continue
			}
			shown++
			fmt.Fprintf(out, "  sub %d:", i)
			for _, e := range entries {
				fmt.Fprintf(out, " user %d (%.4f)", e.ID, e.Distance)
			}
			fmt.Fprintln(out)
		}
	}

	// A discovery wave through the same cached dynamic path.
	targets, err := parseTargets(discover, users)
	if err != nil {
		return err
	}
	for _, id := range targets {
		qs := time.Now()
		matches, partial, err := serving.Search(ds.Profiles[id-1], k, id)
		if err != nil {
			return fmt.Errorf("dynamic search for user %d: %w", id, err)
		}
		note := ""
		if partial {
			note = " [PARTIAL: one or more shards unreachable]"
		}
		fmt.Fprintf(out, "\nuser %d (topics %v) in %s%s:\n",
			id, ds.UserTopics[id-1], time.Since(qs).Round(time.Microsecond), note)
		printMatches(out, ds, matches)
	}

	return nil
}

// subscribeFromFrames decodes client-encoded registration frames (the
// subscription wire codec) and registers each as a standing query. The
// file is the output of pisd-client -subscribe-out.
func subscribeFromFrames(serving *pisd.DynServing, path string, dim int) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for len(data) > 0 {
		frame, consumed, err := pisd.DecodeSubscriptionFrame(data)
		if err != nil {
			return n, fmt.Errorf("decode registration frame %d in %s: %w", n, path, err)
		}
		data = data[consumed:]
		r := frame.Registration
		if r == nil {
			return n, fmt.Errorf("frame %d in %s is not a registration", n, path)
		}
		if len(r.Profile) != dim {
			return n, fmt.Errorf("registration %d carries a %d-dim profile, index expects %d",
				r.SubID, len(r.Profile), dim)
		}
		if _, err := serving.Subscribe(r.SubID, r.Profile, r.K); err != nil {
			return n, fmt.Errorf("register client subscription %d: %w", r.SubID, err)
		}
		n++
	}
	if n == 0 {
		return 0, errors.New("no registration frames in " + path)
	}
	return n, nil
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// dynOptions bundles the -dynamic deployment's flag values.
type dynOptions struct {
	subscribe       int
	subscribeFrames string
	churn           int
	notifyOut       string
	serving         pisd.ServingConfig
}
