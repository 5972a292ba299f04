package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/lsh"
)

// startServer spins up a transport server over a fresh cloud server and
// returns a connected client. Both are torn down with the test.
func startServer(t *testing.T) (*cloud.Server, *Client) {
	t.Helper()
	cs := cloud.New()
	srv := NewServer(cs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	client, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return cs, client
}

func testFrontend(t *testing.T) *frontend.Frontend {
	t.Helper()
	cfg := frontend.Config{
		LSH:        lsh.Params{Dim: 100, Tables: 6, Atoms: 2, Width: 0.8, Seed: 1},
		LoadFactor: 0.8,
		ProbeRange: 5,
		MaxLoop:    300,
		MaxRehash:  3,
		Seed:       1,
		KeySeed:    "transport-test",
	}
	f, err := frontend.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testUploads(t *testing.T, f *frontend.Frontend, n int) ([]frontend.Upload, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Users: n, Dim: 100, Topics: 10, TopicsPerUser: 2,
		ActiveWords: 20, Noise: 0.02, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ups := make([]frontend.Upload, n)
	for i, p := range ds.Profiles {
		ups[i] = frontend.Upload{ID: uint64(i + 1), Profile: p, Meta: f.ComputeMeta(p)}
	}
	return ups, ds
}

func TestPing(t *testing.T) {
	_, client := startServer(t)
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestRemoteEndToEndDiscovery(t *testing.T) {
	_, client := startServer(t)
	f := testFrontend(t)
	uploads, ds := testUploads(t, f, 300)

	idx, encProfiles, err := f.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.InstallIndex(idx); err != nil {
		t.Fatalf("InstallIndex: %v", err)
	}
	if err := client.PutProfiles(encProfiles); err != nil {
		t.Fatalf("PutProfiles: %v", err)
	}
	matches, err := f.Discover(client, ds.Profiles[2], 5, 0)
	if err != nil {
		t.Fatalf("Discover over TCP: %v", err)
	}
	if len(matches) == 0 || matches[0].ID != 3 {
		t.Fatalf("remote discovery results: %+v", matches)
	}
}

func TestRemoteDynamicFlow(t *testing.T) {
	_, client := startServer(t)
	f := testFrontend(t)
	uploads, ds := testUploads(t, f, 200)
	idx, dynClient, encProfiles, err := f.BuildDynamicIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.InstallDynIndex(idx); err != nil {
		t.Fatalf("InstallDynIndex: %v", err)
	}
	if err := client.PutProfiles(encProfiles); err != nil {
		t.Fatal(err)
	}
	dyn, err := f.NewDynServing([]frontend.DynShard{{Client: dynClient}}, []frontend.DynNode{client}, nil, frontend.ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := dyn.Search(ds.Profiles[4], 5, 0)
	if err != nil {
		t.Fatalf("dynamic search over TCP: %v", err)
	}
	if len(matches) == 0 || matches[0].ID != 5 {
		t.Fatalf("remote dynamic results: %+v", matches)
	}
	// Remote secure deletion.
	if err := dynClient.Delete(client, 5, f.ComputeMeta(ds.Profiles[4])); err != nil {
		t.Fatalf("remote Delete: %v", err)
	}
	if err := client.DeleteProfile(5); err != nil {
		t.Fatal(err)
	}
	matches, _, err = dyn.Search(ds.Profiles[4], 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.ID == 5 {
			t.Error("deleted user still discoverable remotely")
		}
	}
}

func TestRemoteImages(t *testing.T) {
	_, client := startServer(t)
	if err := client.StoreImage(9, []byte("enc-image-1")); err != nil {
		t.Fatal(err)
	}
	if err := client.StoreImage(9, []byte("enc-image-2")); err != nil {
		t.Fatal(err)
	}
	blobs, err := client.FetchImages(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 2 || string(blobs[0]) != "enc-image-1" {
		t.Errorf("FetchImages = %q", blobs)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, client := startServer(t)
	// No index installed: the exchange must fail with the server's message.
	_, _, err := client.SecRecBatch(context.Background(), []*core.Trapdoor{{}})
	if err == nil || !strings.Contains(err.Error(), "no index") {
		t.Errorf("SecRecBatch error = %v", err)
	}
	// An unknown profile is an empty slot aligned with the request, not an
	// error: all-empty answers survive the wire at full length.
	got, err := client.FetchProfiles([]uint64{42, 43})
	if err != nil || len(got) != 2 || len(got[0]) != 0 || len(got[1]) != 0 {
		t.Errorf("unknown profile fetch = %v, %v; want two empty slots", got, err)
	}
}

func TestTrafficAccounting(t *testing.T) {
	_, client := startServer(t)
	if err := client.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	sent, recv := client.Traffic()
	if sent <= 0 || recv <= 0 {
		t.Errorf("traffic not accounted: sent=%d recv=%d", sent, recv)
	}
}

func TestConcurrentClients(t *testing.T) {
	cs, client := startServer(t)
	_ = client
	f := testFrontend(t)
	uploads, ds := testUploads(t, f, 200)
	idx, encProfiles, err := f.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	addr := dialAddr(t, cs)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for q := 0; q < 10; q++ {
				if _, err := f.Discover(c, ds.Profiles[(w*10+q)%len(ds.Profiles)], 5, 0); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent client: %v", err)
	}
}

// dialAddr starts a second transport server over an existing cloud server
// so concurrent tests get their own listener.
func dialAddr(t *testing.T, cs *cloud.Server) string {
	t.Helper()
	srv := NewServer(cs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return addr
}

func TestShutdownIdempotentAndListenAfterShutdown(t *testing.T) {
	srv := NewServer(cloud.New())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_ = addr
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen after Shutdown accepted")
	}
}

func TestIndexCodecRoundTrip(t *testing.T) {
	f := testFrontend(t)
	uploads, _ := testUploads(t, f, 100)
	idx, _, err := f.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded core.Index
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if decoded.Len() != idx.Len() || decoded.Width() != idx.Width() ||
		decoded.SizeBytes() != idx.SizeBytes() {
		t.Error("decoded index shape mismatch")
	}
	// Bucket content must be preserved bit for bit.
	for pos := 0; pos < 10; pos++ {
		a, err := idx.Bucket(0, uint64(pos))
		if err != nil {
			t.Fatal(err)
		}
		b, err := decoded.Bucket(0, uint64(pos))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatal("bucket content changed in codec")
		}
	}
	if err := decoded.UnmarshalBinary(blob[:10]); err == nil {
		t.Error("truncated index accepted")
	}
	blob[0] ^= 1
	if err := decoded.UnmarshalBinary(blob); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestDynIndexCodecRoundTrip(t *testing.T) {
	f := testFrontend(t)
	uploads, _ := testUploads(t, f, 80)
	idx, _, _, err := f.BuildDynamicIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded core.DynIndex
	if err := decoded.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if decoded.Width() != idx.Width() || decoded.SizeBytes() != idx.SizeBytes() {
		t.Error("decoded dynamic index shape mismatch")
	}
	refs := []core.BucketRef{{Table: 0, Pos: 0}, {Table: 1, Pos: 3}}
	a, err := idx.FetchBuckets(refs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decoded.FetchBuckets(refs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		if string(a[i].Masked) != string(b[i].Masked) || string(a[i].EncR) != string(b[i].EncR) {
			t.Fatal("dynamic bucket changed in codec")
		}
	}
}

func TestClientTimeout(t *testing.T) {
	// A server that accepts but never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Swallow bytes forever.
			io.Copy(io.Discard, conn)
		}
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetTimeout(150 * time.Millisecond)
	start := time.Now()
	if err := client.Ping(context.Background()); err == nil {
		t.Fatal("ping against silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestConnErrorOnServerClosedMidCall(t *testing.T) {
	// A server that reads the request, then slams the connection shut:
	// the client's pending receive must surface a typed ConnError.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 1024)
		conn.Read(buf)
		conn.Close()
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	err = client.Ping(context.Background())
	if err == nil {
		t.Fatal("ping against closing server succeeded")
	}
	if !IsConnError(err) {
		t.Errorf("server close surfaced %T (%v), want *ConnError", err, err)
	}
}

func TestConnErrorOnTruncatedFrame(t *testing.T) {
	// A server that answers with garbage bytes and closes: a truncated /
	// corrupt frame is a connection-level error, not an application
	// error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 1024)
		conn.Read(buf)
		conn.Write([]byte{0x07, 0xff, 0x81}) // nonsense partial frame
		conn.Close()
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	err = client.Ping(context.Background())
	if err == nil {
		t.Fatal("ping over truncated frame succeeded")
	}
	var ce *ConnError
	if !errors.As(err, &ce) {
		t.Fatalf("truncated frame surfaced %T (%v), want *ConnError", err, err)
	}
	if ce.Op != "receive" {
		t.Errorf("ConnError.Op = %q, want receive", ce.Op)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want errors.Is(ErrTruncated)", err)
	}
}

func TestRemoteErrorIsNotConnError(t *testing.T) {
	_, client := startServer(t)
	_, _, err := client.SecRecBatch(context.Background(), []*core.Trapdoor{{}})
	if err == nil {
		t.Fatal("SecRecBatch without index succeeded")
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("application failure surfaced %T (%v), want *RemoteError", err, err)
	}
	if IsConnError(err) {
		t.Error("application failure classified as connection error")
	}
	// The connection must stay healthy after a RemoteError.
	if err := client.Ping(context.Background()); err != nil {
		t.Errorf("ping after RemoteError: %v", err)
	}
}

// TestHandlerPanicFailsOneRequest runs a server over a nil cloud server, so
// the SecRecBatch handler panics. The panic must come back as that
// request's RemoteError, and the same connection must go on serving.
func TestHandlerPanicFailsOneRequest(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, _, err = client.SecRecBatch(context.Background(), []*core.Trapdoor{{}})
	var re *RemoteError
	if !errors.As(err, &re) || !strings.HasPrefix(re.Msg, handlerPanic) {
		t.Fatalf("panicking handler answered %T (%v), want a RemoteError naming the panic", err, err)
	}
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("ping on the same connection after the panic: %v", err)
	}
}

func TestContextDeadlineBoundsCall(t *testing.T) {
	// A server that accepts but never answers: a per-call context deadline
	// must interrupt the exchange and classify it as retryable.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = client.Ping(ctx)
	if err == nil {
		t.Fatal("ping against silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("context deadline took %v to fire", elapsed)
	}
	if !IsConnError(err) {
		t.Errorf("deadline expiry surfaced %T (%v), want *ConnError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want errors.Is(context.DeadlineExceeded)", err)
	}
}

func TestContextCancelInterruptsCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = client.Ping(ctx)
	if err == nil {
		t.Fatal("cancelled ping succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v to interrupt the call", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want errors.Is(context.Canceled)", err)
	}
}

func TestContextPreCancelledFailsFast(t *testing.T) {
	_, client := startServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := client.Ping(ctx); err == nil {
		t.Fatal("pre-cancelled context accepted")
	} else if !IsConnError(err) {
		t.Errorf("pre-cancelled call surfaced %T, want *ConnError", err)
	}
	// The stream was never touched; the client must still work.
	if err := client.Ping(context.Background()); err != nil {
		t.Errorf("ping after pre-cancelled call: %v", err)
	}
}

func TestDialFailureIsConnError(t *testing.T) {
	// Reserve a port and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial to dead address succeeded")
	} else if !IsConnError(err) {
		t.Errorf("dial failure surfaced %T (%v), want *ConnError", err, err)
	}
}

// TestCloseJoinsReader pins Close's contract: when it returns, the reader
// goroutine has exited — conn_failures already counted, nothing of the
// client left running to race a later SetRegistry.
func TestCloseJoinsReader(t *testing.T) {
	_, client := startServer(t)
	if err := client.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	fails := tmet.connFails.Load()
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-client.done:
	default:
		t.Fatal("Close returned with readLoop still running")
	}
	if got := tmet.connFails.Load() - fails; got != 1 {
		t.Fatalf("conn_failures moved by %d at Close, want 1", got)
	}
	client.Close() // closing twice is harmless
}
