package shard

import (
	"context"
	"testing"

	"pisd/internal/cloud"
)

// TestMigrateRefusesZeroWidth: a Rebalancer without a width would copy no
// bucket range yet admit the joiner, serving reads from an empty shell.
// Migrate must refuse before running any closure and leave the joiner
// lagging.
func TestMigrateRefusesZeroWidth(t *testing.T) {
	g, err := NewReplicaGroup(0, GroupConfig{}, NewLocal(cloud.New()))
	if err != nil {
		t.Fatal(err)
	}
	j, err := g.AddReplica(NewLocal(cloud.New()))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	rb := &Rebalancer{
		Prepare: func(int, ReplicaNode, ReplicaNode) error { calls++; return nil },
		CopyRange: func(int, ReplicaNode, ReplicaNode, uint64, uint64) error {
			calls++
			return nil
		},
		Finish: func(int, ReplicaNode, ReplicaNode) error { calls++; return nil },
	}
	if err := rb.Migrate(context.Background(), g, j); err == nil {
		t.Fatal("Migrate with zero width succeeded")
	}
	if calls != 0 {
		t.Fatalf("Migrate ran %d closures before refusing", calls)
	}
	if st := g.Status()[j]; st.Current || !st.Lagging {
		t.Fatalf("joiner after refused migration: %+v, want lagging and not current", st)
	}
}
