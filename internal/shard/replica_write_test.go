package shard

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"pisd/internal/cloud"
	"pisd/internal/transport"
)

// writeFault is where a profile write's connection fault strikes.
type writeFault int

const (
	// lostRequest: the put never reaches the store.
	lostRequest writeFault = iota
	// lostVersion: the put lands, its version record does not.
	lostVersion
	// lostResponse: the put and then the write's version record — a
	// write's last step — land, and the response is lost.
	lostResponse
)

// writeFaultNode fails every profile write with a connection fault at the
// step fault names.
type writeFaultNode struct {
	ReplicaNode
	fault writeFault
}

var errReset = &transport.ConnError{Op: "receive", Err: errors.New("connection reset")}

func (n writeFaultNode) PutProfiles(profiles map[uint64][]byte) error {
	if n.fault == lostRequest {
		return errReset
	}
	return n.ReplicaNode.PutProfiles(profiles)
}

func (n writeFaultNode) ApplyVersion(v uint64) error {
	if n.fault == lostVersion {
		return errReset
	}
	if err := n.ReplicaNode.ApplyVersion(v); err != nil {
		return err
	}
	return errReset
}

// copyProfiles is a repair that mirrors src's profile store onto dst.
func copyProfiles(_ int, src, dst ReplicaNode) error {
	ids, err := src.ProfileIDs()
	if err != nil {
		return err
	}
	cts, err := src.FetchProfiles(ids)
	if err != nil {
		return err
	}
	m := make(map[uint64][]byte, len(ids))
	for i, id := range ids {
		m[id] = cts[i]
	}
	return dst.PutProfiles(m)
}

// faultGroup is a two-member group whose members hold profile 1 and then
// fail every put the way faults says.
func faultGroup(t *testing.T, faults ...writeFaultNode) (*ReplicaGroup, []*cloud.Server) {
	t.Helper()
	css := []*cloud.Server{cloud.New(), cloud.New()}
	members := make([]ReplicaNode, len(css))
	for i, cs := range css {
		members[i] = NewLocal(cs)
	}
	g, err := NewReplicaGroup(0, GroupConfig{}, members...)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.PutProfiles(map[uint64][]byte{1: []byte("profile one")}); err != nil {
		t.Fatal(err)
	}
	for i := range g.reps {
		faults[i].ReplicaNode = members[i]
		g.reps[i].node = faults[i]
	}
	return g, css
}

// TestWriteFailedEverywhereRollsBack: a put whose request is lost on every
// member applied nothing anywhere. The group version rolls back, the first
// member stays current as the source of truth, and the next read succeeds
// instead of refusing with "no current replica". The other member lags
// until the repairer copies the source over it.
func TestWriteFailedEverywhereRollsBack(t *testing.T) {
	g, css := faultGroup(t, writeFaultNode{}, writeFaultNode{})
	before := g.Version()
	if err := g.PutProfiles(map[uint64][]byte{2: []byte("profile two")}); err == nil {
		t.Fatal("a put lost on every member succeeded")
	}
	if g.Version() != before {
		t.Fatalf("group version %d after a write nothing applied, want %d", g.Version(), before)
	}
	st := g.Status()
	if !st[0].Current || st[0].Lagging || st[0].Applied != before || st[0].WriteFails != 1 {
		t.Fatalf("source member after the rolled-back write: %+v", st[0])
	}
	if st[1].Current || !st[1].Lagging || st[1].WriteFails != 1 {
		t.Fatalf("second member after the rolled-back write: %+v, want lagging", st[1])
	}
	for i, cs := range css {
		if v := cs.Version(); v != before {
			t.Fatalf("member %d server version %d, want %d", i, v, before)
		}
	}
	got, err := g.FetchProfiles([]uint64{1, 2})
	if err != nil {
		t.Fatalf("read after a write failed everywhere: %v", err)
	}
	if string(got[0]) != "profile one" || len(got[1]) != 0 {
		t.Fatalf("read after the rolled-back write returned %q", got)
	}
	// The group keeps writing at the version it rolled back to.
	g.reps[0].node = g.reps[0].node.(writeFaultNode).ReplicaNode
	if err := g.PutProfiles(map[uint64][]byte{3: []byte("profile three")}); err != nil {
		t.Fatal(err)
	}
	if g.Version() != before+1 || css[0].Version() != before+1 {
		t.Fatalf("next write at group version %d, member 0 at %d, want %d", g.Version(), css[0].Version(), before+1)
	}
}

// TestWriteBodyAppliedVersionLost: member 0 applies the put but loses its
// version record, member 1 never receives the put. Both report the version
// before the write, yet they disagree about profile 2, so the rollback may
// keep only one of them current: member 0, the first to answer. Reads see
// member 0's store alone, and one repair round makes the two agree.
func TestWriteBodyAppliedVersionLost(t *testing.T) {
	g, css := faultGroup(t, writeFaultNode{fault: lostVersion}, writeFaultNode{})
	before := g.Version()
	if err := g.PutProfiles(map[uint64][]byte{2: []byte("profile two")}); err == nil {
		t.Fatal("a put whose version record landed nowhere succeeded")
	}
	if g.Version() != before {
		t.Fatalf("group version %d, want %d", g.Version(), before)
	}
	st := g.Status()
	if !st[0].Current || st[1].Current || !st[1].Lagging {
		t.Fatalf("members after the rolled-back write: %+v, want only member 0 current", st)
	}
	for i, want := range []string{"profile two", ""} {
		got, err := g.Replica(i).FetchProfiles([]uint64{2})
		if err != nil {
			t.Fatal(err)
		}
		if string(got[0]) != want {
			t.Fatalf("member %d holds %q for profile 2, want %q", i, got[0], want)
		}
	}
	for k := 0; k < 4; k++ {
		got, err := g.FetchProfiles([]uint64{2})
		if err != nil {
			t.Fatalf("read %d after the rolled-back write: %v", k, err)
		}
		if string(got[0]) != "profile two" {
			t.Fatalf("read %d returned %q, want the source member's profile", k, got[0])
		}
	}

	// The faults heal; the repairer copies member 0 over member 1.
	for _, rep := range g.reps {
		rep.node = rep.node.(writeFaultNode).ReplicaNode
	}
	if n := NewRepairer(RepairerConfig{}, copyProfiles, g).RepairOnce(context.Background()); n != 1 {
		t.Fatalf("repair round repaired %d members, want 1", n)
	}
	for i, st := range g.Status() {
		if !st.Current {
			t.Fatalf("member %d after repair: %+v, want current", i, st)
		}
		got, err := css[i].FetchProfiles([]uint64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if string(got[0]) != "profile one" || string(got[1]) != "profile two" {
			t.Fatalf("member %d after repair holds %q", i, got)
		}
	}
}

// TestWriteResponseLostAfterApply: member 0 applies the put and loses the
// response, member 1 never receives it. Member 0 reports the write's
// version, so the write stands: member 0 stays current and serves the new
// profile, member 1 lags until repaired.
func TestWriteResponseLostAfterApply(t *testing.T) {
	g, _ := faultGroup(t, writeFaultNode{fault: lostResponse}, writeFaultNode{})
	before := g.Version()
	if err := g.PutProfiles(map[uint64][]byte{2: []byte("profile two")}); err != nil {
		t.Fatalf("a put applied on a current member failed: %v", err)
	}
	if g.Version() != before+1 {
		t.Fatalf("group version %d, want %d", g.Version(), before+1)
	}
	st := g.Status()
	if !st[0].Current || st[0].Applied != before+1 {
		t.Fatalf("member that applied the write: %+v, want current at %d", st[0], before+1)
	}
	if st[1].Current || !st[1].Lagging {
		t.Fatalf("member that never received the write: %+v, want lagging", st[1])
	}
	got, err := g.FetchProfiles([]uint64{2})
	if err != nil {
		t.Fatalf("read after a lost response: %v", err)
	}
	if !bytes.Equal(got[0], []byte("profile two")) {
		t.Fatalf("read after a lost response returned %q, want the applied profile", got[0])
	}
}

// TestWriteWithEveryReplicaDownRollsBack: a write that finds every member
// demoted reaches none. The version rolls back and the members stay
// current, so once the prober readmits them they serve without a repair.
func TestWriteWithEveryReplicaDownRollsBack(t *testing.T) {
	g, _ := faultGroup(t, writeFaultNode{}, writeFaultNode{})
	before := g.Version()
	for _, rep := range g.reps {
		rep.down = true
	}
	if err := g.PutProfiles(map[uint64][]byte{2: []byte("profile two")}); err == nil {
		t.Fatal("a put with every member down succeeded")
	}
	if g.Version() != before {
		t.Fatalf("group version %d after a write that reached no member, want %d", g.Version(), before)
	}
	for _, rep := range g.reps {
		rep.down = false
	}
	if _, err := g.FetchProfiles([]uint64{1}); err != nil {
		t.Fatalf("read after the members came back: %v", err)
	}
}
