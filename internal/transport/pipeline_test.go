package transport

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"pisd/internal/core"
	"pisd/internal/frontend"
)

// TestPipelinedDiscoveriesShareOneClient drives many goroutines through a
// single multiplexed client — the pipelining the framed protocol exists
// for — and checks every interleaved result against the serial reference.
// Run under -race this also proves the client's pending-map and writer
// synchronisation.
func TestPipelinedDiscoveriesShareOneClient(t *testing.T) {
	_, client := startServer(t)
	f := testFrontend(t)
	uploads, ds := testUploads(t, f, 300)
	idx, encProfiles, err := f.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.InstallIndex(idx); err != nil {
		t.Fatal(err)
	}
	if err := client.PutProfiles(encProfiles); err != nil {
		t.Fatal(err)
	}

	const goroutines, queriesPer = 8, 6
	want := make([][]frontend.Match, goroutines*queriesPer)
	for q := range want {
		m, err := f.Discover(client, ds.Profiles[q%len(ds.Profiles)], 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = m
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queriesPer; i++ {
				q := g*queriesPer + i
				got, err := f.Discover(client, ds.Profiles[q%len(ds.Profiles)], 5, 0)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[q]) {
					t.Errorf("pipelined query %d: %+v, want %+v", q, got, want[q])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pipelined discovery: %v", err)
	}
}

// TestLateResponseSkippedByID is the regression test for the old
// protocol's documented wart: a timed-out call used to leave the stream
// with an unread response, poisoning the next exchange. With request-ID
// multiplexing the late response is dropped by its ID and the connection
// stays usable.
func TestLateResponseSkippedByID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// A frame-speaking server that answers the FIRST request late (after
	// the client's timeout) and with a poisoned error body; every later
	// request is answered immediately and cleanly. If the client matched
	// responses by arrival order instead of ID, the poisoned body would
	// surface on the second call.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr, fw := newFrameReader(conn), &frameWriter{w: conn}
		first := true
		for {
			typ, payload, err := fr.next(nil)
			if err != nil {
				return
			}
			var req message
			if err := decode(typ, payload, &req); err != nil {
				return
			}
			resp := &message{typ: typ | respBit, id: req.id}
			var delay time.Duration
			if first {
				first = false
				delay = 400 * time.Millisecond
				resp.status, resp.errMsg = statusRemote, "stale response that must be skipped"
			}
			go func(resp *message, delay time.Duration) {
				time.Sleep(delay)
				sendFrames(fw, resp) // the test may be over; nobody is left to fail
			}(resp, delay)
		}
	}()

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetTimeout(100 * time.Millisecond)

	// First call times out; its response is still in flight.
	if err := client.Ping(context.Background()); err == nil {
		t.Fatal("ping answered late succeeded")
	} else if !IsConnError(err) {
		t.Fatalf("timeout surfaced %T (%v), want *ConnError", err, err)
	}
	// Second call must get ITS response, not the abandoned call's.
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("ping after timed-out call: %v", err)
	}
	// Let the stale response for the first request arrive and be dropped,
	// then prove the connection is still healthy.
	time.Sleep(450 * time.Millisecond)
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("ping after stale response arrived: %v", err)
	}
}

// TestSecRecBatchOverTransport checks the discovery endpoint end to end: a
// batch of q over TCP (one request frame, one response frame) must match q
// batches of one exactly.
func TestSecRecBatchOverTransport(t *testing.T) {
	_, client := startServer(t)
	f := testFrontend(t)
	uploads, ds := testUploads(t, f, 300)
	idx, encProfiles, err := f.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.InstallIndex(idx); err != nil {
		t.Fatal(err)
	}
	if err := client.PutProfiles(encProfiles); err != nil {
		t.Fatal(err)
	}

	tds, err := f.Trapdoors(ds.Profiles[:16])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ids, profiles, err := client.SecRecBatch(ctx, tds)
	if err != nil {
		t.Fatalf("SecRecBatch: %v", err)
	}
	if len(ids) != len(tds) || len(profiles) != len(tds) {
		t.Fatalf("batch of %d answered with %d/%d results", len(tds), len(ids), len(profiles))
	}
	for q, td := range tds {
		wantIDs, wantProfiles, err := client.SecRecBatch(ctx, []*core.Trapdoor{td})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids[q], wantIDs[0]) {
			t.Fatalf("query %d ids: %v, want %v", q, ids[q], wantIDs[0])
		}
		if !reflect.DeepEqual(profiles[q], wantProfiles[0]) {
			t.Fatalf("query %d profiles differ from its batch of one", q)
		}
	}
	// Empty batch is a no-op, not an error.
	if _, _, err := client.SecRecBatch(ctx, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}
