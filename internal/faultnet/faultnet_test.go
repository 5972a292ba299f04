package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// startSink starts a TCP server that drains every accepted connection,
// returning its address.
func startSink(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	return ln.Addr().String()
}

// startSource starts a TCP server that writes payload to every accepted
// connection and closes it.
func startSource(t *testing.T, payload []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				c.Write(payload)
				c.Close()
			}(c)
		}
	}()
	return ln.Addr().String()
}

func TestZeroPlanIsTransparent(t *testing.T) {
	payload := bytes.Repeat([]byte("pisd"), 1024)
	addr := startSource(t, payload)
	n := New(Plan{Seed: 1})
	conn, err := n.Dialer("peer")(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted through transparent wrapper: %d bytes, want %d", len(got), len(payload))
	}
}

// writesBeforeReset dials through n and writes 16-byte chunks until an
// injected reset, returning how many writes succeeded. Used to compare
// schedules across networks.
func writesBeforeReset(t *testing.T, n *Network, peer, addr string) int {
	t.Helper()
	conn, err := n.Dialer(peer)(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	chunk := make([]byte, 16)
	for i := 0; i < 10000; i++ {
		if _, err := conn.Write(chunk); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("write %d failed with non-injected error: %v", i, err)
			}
			return i
		}
	}
	t.Fatal("no reset injected in 10000 writes")
	return -1
}

func TestScheduleIsSeedDeterministic(t *testing.T) {
	addr := startSink(t)
	plan := Plan{Seed: 7, ResetProb: 0.05}
	// Same seed, same peer, same connection ordinal: identical schedule.
	a := writesBeforeReset(t, New(plan), "shard0", addr)
	b := writesBeforeReset(t, New(plan), "shard0", addr)
	if a != b {
		t.Fatalf("same (seed, peer, ordinal) diverged: reset after %d vs %d writes", a, b)
	}
	// Second connection of the same peer draws a fresh schedule from its
	// ordinal; replaying the network replays it too.
	na, nb := New(plan), New(plan)
	writesBeforeReset(t, na, "shard0", addr)
	writesBeforeReset(t, nb, "shard0", addr)
	a2 := writesBeforeReset(t, na, "shard0", addr)
	b2 := writesBeforeReset(t, nb, "shard0", addr)
	if a2 != b2 {
		t.Fatalf("same (seed, peer, ordinal=2) diverged: %d vs %d", a2, b2)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	addr := startSink(t)
	n := New(Plan{Seed: 3})
	dial := n.Dialer("shard1")
	conn, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	n.Partition("shard1")
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Fatal("write on partitioned peer succeeded")
	}
	if _, err := dial(addr); err == nil {
		t.Fatal("dial of partitioned peer succeeded")
	} else if !errors.Is(err, ErrInjected) {
		t.Fatalf("partition dial error %v, want ErrInjected", err)
	}
	// Other peers are unaffected.
	other, err := n.Dialer("shard2")(addr)
	if err != nil {
		t.Fatalf("partition of shard1 leaked to shard2: %v", err)
	}
	if _, err := other.Write([]byte("x")); err != nil {
		t.Fatalf("write on healthy peer: %v", err)
	}
	other.Close()
	n.Heal("shard1")
	conn2, err := dial(addr)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	if _, err := conn2.Write([]byte("x")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	conn2.Close()
}

func TestFailNextWritesIsScriptedAndExact(t *testing.T) {
	addr := startSink(t)
	n := New(Plan{Seed: 9})
	n.SetEnabled(false) // scripted faults fire regardless
	n.FailNextWrites("peer", 1)
	conn, err := n.Dialer("peer")(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("scripted write fault: got %v, want ErrInjected", err)
	}
	conn2, err := n.Dialer("peer")(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("x")); err != nil {
		t.Fatalf("write after scripted budget spent: %v", err)
	}
}

func TestSlowAndStalledReadsPreserveTheStream(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 2048)
	addr := startSource(t, payload)
	n := New(Plan{
		Seed:           11,
		ReadFaultBytes: 256,
		ReadLatency:    time.Millisecond,
		SlowReadBytes:  64,
		StallDelay:     50 * time.Millisecond,
	})
	conn, err := n.Dialer("peer")(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read faults corrupted the stream: %d bytes, want %d", len(got), len(payload))
	}
	// With a ~256-byte mean gap over 4 KiB at least one stall or slow
	// window fires; the whole read must take visible wall time.
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("4 KiB under read faults completed in %v; schedule seems inert", elapsed)
	}
}

func TestSetEnabledGatesProbabilisticFaults(t *testing.T) {
	addr := startSink(t)
	n := New(Plan{Seed: 5, ResetProb: 1.0})
	n.SetEnabled(false)
	conn, err := n.Dialer("peer")(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 100; i++ {
		if _, err := conn.Write([]byte("x")); err != nil {
			t.Fatalf("write %d with faults disabled: %v", i, err)
		}
	}
	n.SetEnabled(true)
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("ResetProb=1 write after enable: got %v, want ErrInjected", err)
	}
}

// startCollector starts a TCP server that hands every byte it receives on
// its first connection, up to EOF, to the returned channel.
func startCollector(t *testing.T) (string, <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	got := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		got <- b
	}()
	return ln.Addr().String(), got
}

// frame is a three-buffer gather list whose every byte is seq.
func frame(seq byte) net.Buffers {
	return net.Buffers{bytes.Repeat([]byte{seq}, 7), bytes.Repeat([]byte{seq}, 300), bytes.Repeat([]byte{seq}, 5)}
}

// TestWriteBuffersIsOneDecisionPerFrame pins what the framed transport
// relies on: a gather list handed to WriteBuffers draws one fault for the
// whole frame. Under DropProb = 0.5 every frame arrives whole or not at
// all — per-buffer decisions would deliver fragments — and the survivors
// arrive in order.
func TestWriteBuffersIsOneDecisionPerFrame(t *testing.T) {
	addr, got := startCollector(t)
	n := New(Plan{Seed: 13, DropProb: 0.5})
	conn, err := n.Dialer("peer")(addr)
	if err != nil {
		t.Fatal(err)
	}
	const frames, size = 100, 7 + 300 + 5
	for seq := 1; seq <= frames; seq++ {
		bufs := frame(byte(seq))
		if n, err := conn.(*Conn).WriteBuffers(&bufs); err != nil || n != size {
			t.Fatalf("frame %d: wrote %d, %v; a dropped frame must still report success in full", seq, n, err)
		}
	}
	conn.Close()
	stream := <-got
	if len(stream)%size != 0 {
		t.Fatalf("%d bytes arrived, not a whole number of %d-byte frames", len(stream), size)
	}
	arrived := len(stream) / size
	if arrived == 0 || arrived == frames {
		t.Fatalf("%d of %d frames arrived; the schedule did not exercise both outcomes", arrived, frames)
	}
	last := byte(0)
	for off := 0; off < len(stream); off += size {
		f := stream[off : off+size]
		if bytes.Count(f, f[:1]) != size || f[0] <= last {
			t.Fatalf("frame at offset %d is a fragment or out of order", off)
		}
		last = f[0]
	}
}

// TestWriteBuffersTruncateAndReset: a truncated frame delivers exactly the
// first half of the gather list, across buffer boundaries, then kills the
// connection; a reset delivers nothing.
func TestWriteBuffersTruncateAndReset(t *testing.T) {
	for _, tc := range []struct {
		plan Plan
		want int
	}{
		{Plan{Seed: 1, TruncateProb: 1}, (7 + 300 + 5) / 2},
		{Plan{Seed: 1, ResetProb: 1}, 0},
	} {
		addr, got := startCollector(t)
		conn, err := New(tc.plan).Dialer("peer")(addr)
		if err != nil {
			t.Fatal(err)
		}
		bufs := frame(9)
		if n, err := conn.(*Conn).WriteBuffers(&bufs); !errors.Is(err, ErrInjected) || n != 0 {
			t.Fatalf("%+v: WriteBuffers = %d, %v; want 0, ErrInjected", tc.plan, n, err)
		}
		if stream := <-got; len(stream) != tc.want || bytes.Count(stream, []byte{9}) != tc.want {
			t.Fatalf("%+v: peer received %d bytes, want the first %d of the frame", tc.plan, len(stream), tc.want)
		}
		if _, err := conn.Write([]byte("x")); err == nil {
			t.Fatalf("%+v: connection still writable after the fault", tc.plan)
		}
	}
}
