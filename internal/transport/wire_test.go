package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pisd/internal/binfmt"
	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/faultnet"
	"pisd/internal/lsh"
	"pisd/internal/obs"
)

// logical strips a message down to what the wire carries — no decode
// scratch, empty lists as nil — so a decoded message compares against the
// one that was encoded.
func logical(m *message) message {
	out := message{typ: m.typ, id: m.id, budget: m.budget, status: m.status, errMsg: m.errMsg, user: m.user, version: m.version}
	blobs := func(in [][]byte) [][]byte {
		if len(in) == 0 {
			return nil
		}
		cp := make([][]byte, len(in))
		for i, b := range in {
			if len(b) > 0 {
				cp[i] = b
			}
		}
		return cp
	}
	if m.typ != msgSecRecBatch|respBit {
		if len(m.ids) > 0 {
			out.ids = m.ids
		}
		out.blobs = blobs(m.blobs)
	}
	if len(m.refs) > 0 {
		out.refs = m.refs
	}
	for _, b := range m.buckets {
		out.buckets = append(out.buckets, core.DynBucket{Masked: blobs([][]byte{b.Masked})[0], EncR: blobs([][]byte{b.EncR})[0]})
	}
	for _, t := range m.trapdoors {
		cp := &core.Trapdoor{Stash: blobs(t.Stash)}
		for _, entries := range t.Tables {
			cp.Tables = append(cp.Tables, append([]core.Entry(nil), entries...))
		}
		out.trapdoors = append(out.trapdoors, cp)
	}
	for q := range m.batchIDs {
		out.batchIDs = append(out.batchIDs, append([]uint64(nil), m.batchIDs[q]...))
		out.batchBlobs = append(out.batchBlobs, blobs(m.batchBlobs[q]))
	}
	return out
}

// roundTrip encodes m, reads the frame back and decodes it.
func roundTrip(t *testing.T, m *message) message {
	t.Helper()
	wire := encodeFrames(t, m)
	fr := newFrameReader(bytes.NewReader(wire))
	typ, payload, err := fr.next(nil)
	if err != nil {
		t.Fatalf("%v: read back: %v", m.typ, err)
	}
	if fr.n != int64(len(wire)) {
		t.Fatalf("%v: reader consumed %d of %d bytes", m.typ, fr.n, len(wire))
	}
	var got message
	if err := decode(typ, payload, &got); err != nil {
		t.Fatalf("%v: decode: %v", m.typ, err)
	}
	return got
}

// randomMessage fills the body of a message of type typ with random
// content; list and string lengths are drawn from sizes that include
// empty, below and above the splice threshold.
func randomMessage(rng *rand.Rand, typ msgType) *message {
	n := func() int { return []int{0, 0, 1, 2, 7}[rng.Intn(5)] }
	str := func() []byte {
		b := make([]byte, []int{0, 1, 31, gatherMin - 1, gatherMin, 3000}[rng.Intn(6)])
		rng.Read(b)
		return b
	}
	strs := func() [][]byte {
		out := make([][]byte, n())
		for i := range out {
			out[i] = str()
		}
		return out
	}
	ids := func(k int) []uint64 {
		out := make([]uint64, k)
		for i := range out {
			out[i] = rng.Uint64()
		}
		return out
	}
	refs := func(k int) []core.BucketRef {
		out := make([]core.BucketRef, k)
		for i := range out {
			out[i] = core.BucketRef{Table: rng.Intn(64) - 1, Pos: rng.Uint64()}
		}
		return out
	}
	buckets := func(k int) []core.DynBucket {
		out := make([]core.DynBucket, k)
		for i := range out {
			out[i] = core.DynBucket{Masked: str(), EncR: str()}
		}
		return out
	}
	mask := func() []byte {
		b := make([]byte, core.BucketSize)
		rng.Read(b)
		return b
	}
	m := &message{typ: typ, id: rng.Uint64()}
	if typ&respBit == 0 {
		m.budget = time.Duration(rng.Int63n(2) * rng.Int63())
	}
	switch typ {
	case msgInstallIndex, msgInstallDynIndex:
		m.blobs = [][]byte{str()}
	case msgSecRecBatch:
		for q := n(); q > 0; q-- {
			td := new(core.Trapdoor)
			for j := n(); j > 0; j-- {
				entries := make([]core.Entry, 1+n())
				for i := range entries {
					entries[i] = core.Entry{Pos: rng.Uint64(), Mask: mask()}
				}
				td.Tables = append(td.Tables, entries)
			}
			for s := n(); s > 0; s-- {
				td.Stash = append(td.Stash, mask())
			}
			m.trapdoors = append(m.trapdoors, td)
		}
	case msgSecRecBatch | respBit:
		for q := n(); q > 0; q-- {
			cts := strs()
			m.batchIDs, m.batchBlobs = append(m.batchIDs, ids(len(cts))), append(m.batchBlobs, cts)
		}
	case msgFetchProfiles, msgProfileIDs | respBit:
		m.ids = ids(n())
	case msgFetchProfiles | respBit, msgFetchImages | respBit:
		m.blobs = strs()
	case msgPutProfiles:
		m.blobs = strs()
		m.ids = ids(len(m.blobs))
	case msgDeleteProfile, msgFetchImages:
		m.user = rng.Uint64()
	case msgFetchBuckets:
		m.refs = refs(n())
	case msgFetchBuckets | respBit:
		m.buckets = buckets(n())
	case msgStoreBuckets:
		k := n()
		m.version, m.refs, m.buckets = rng.Uint64(), refs(k), buckets(k)
	case msgStoreImage:
		m.user, m.blobs = rng.Uint64(), [][]byte{str()}
	case msgVersion | respBit, msgSetVersion:
		m.version = rng.Uint64()
	}
	return m
}

// TestCodecRoundTrip is the codec's defining property: for every one of
// the 14 methods, in both directions, decode(encode(x)) == x — over
// random bodies, over every non-OK status, and over the edge cases the
// callers rely on (empty lists, the gap-tolerant empty FetchProfiles
// entry, a 0-candidate answer).
func TestCodecRoundTrip(t *testing.T) {
	check := func(want *message) {
		t.Helper()
		got := roundTrip(t, want)
		if g, w := logical(&got), logical(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", want.typ, g, w)
		}
	}
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 60; round++ {
		for typ := msgPing; typ <= msgLast; typ++ {
			check(randomMessage(rng, typ))
			check(randomMessage(rng, typ|respBit))
		}
	}
	for typ := msgPing; typ <= msgLast; typ++ {
		for _, status := range []byte{statusRemote, statusExpired, statusBadPayload} {
			check(&message{typ: typ | respBit, id: uint64(typ), status: status, errMsg: "why"})
		}
	}
	for _, m := range sampleMessages() {
		check(m)
	}
	big := make([]byte, 2*gatherMin)
	for _, m := range []*message{
		{typ: msgFetchProfiles},
		{typ: msgFetchProfiles | respBit, blobs: [][]byte{nil, big, nil}},
		{typ: msgFetchProfiles | respBit, blobs: [][]byte{nil, nil}},
		{typ: msgSecRecBatch | respBit, batchIDs: [][]uint64{nil}, batchBlobs: [][][]byte{nil}},
		{typ: msgSecRecBatch | respBit},
		{typ: msgSecRecBatch, trapdoors: []*core.Trapdoor{{}}},
		{typ: msgPutProfiles},
		{typ: msgStoreBuckets},
		{typ: msgFetchImages | respBit},
		{typ: msgProfileIDs | respBit},
	} {
		check(m)
	}

	// What the codec cannot represent is refused at encode, per request.
	fb := new(frameBuf)
	for _, m := range []*message{
		{typ: msgSecRecBatch, trapdoors: []*core.Trapdoor{nil}},
		{typ: msgSecRecBatch, trapdoors: []*core.Trapdoor{{Tables: [][]core.Entry{{{Pos: 1, Mask: []byte("short")}}}}}},
		{typ: msgSecRecBatch, trapdoors: []*core.Trapdoor{{Stash: [][]byte{make([]byte, core.BucketSize+1)}}}},
		{typ: msgSecRecBatch | respBit, batchIDs: [][]uint64{{1}}, batchBlobs: [][][]byte{{}}},
		{typ: msgPutProfiles, ids: []uint64{1}},
		{typ: msgInstallIndex},
		{typ: msgLast + 1},
	} {
		if err := fb.encode(m); !errors.Is(err, ErrBadPayload) {
			t.Errorf("encode of malformed %v: %v, want ErrBadPayload", m.typ, err)
		}
	}
}

// TestDecodedStringsAreCapped pins the ownership rule's safety half: every
// byte string a decode hands out is a window of the frame's buffer whose
// capacity ends where it does, so an append by one holder cannot write
// into its neighbour.
func TestDecodedStringsAreCapped(t *testing.T) {
	a, b := bytes.Repeat([]byte{1}, 2000), bytes.Repeat([]byte{2}, 2000)
	got := roundTrip(t, &message{typ: msgSecRecBatch | respBit, batchIDs: [][]uint64{{1, 2}}, batchBlobs: [][][]byte{{a, b}}})
	first := got.batchBlobs[0][0]
	if cap(first) != len(first) {
		t.Fatalf("decoded ciphertext has %d spare capacity", cap(first)-len(first))
	}
	_ = append(first, 0xff)
	if !bytes.Equal(got.batchBlobs[0][1], b) {
		t.Fatal("append to one decoded ciphertext reached the next")
	}
}

// secRecAnswer is a one-query SecRecBatch answer of cands ciphertexts.
func secRecAnswer(cands, ctLen int) *message {
	m := &message{typ: msgSecRecBatch | respBit, id: 9, batchIDs: [][]uint64{make([]uint64, cands)}, batchBlobs: [][][]byte{make([][]byte, cands)}}
	for i := range m.batchBlobs[0] {
		m.batchIDs[0][i] = uint64(i + 1)
		m.batchBlobs[0][i] = bytes.Repeat([]byte{byte(i)}, ctLen)
	}
	return m
}

// TestSecRecAnswerAllocations pins the steady-state allocation profile of
// one shard's answer: encoding into a warm header buffer allocates
// nothing, reading the frame allocates its one buffer, and decoding it
// allocates a constant handful of slice headers whatever the candidate
// count and the ciphertext length.
func TestSecRecAnswerAllocations(t *testing.T) {
	answer := secRecAnswer(14, 8164)
	fb := new(frameBuf)
	if err := fb.encode(answer); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { fb.encode(answer) }); n != 0 {
		t.Errorf("encoding a 14-candidate answer into a warm buffer: %v allocs, want 0", n)
	}
	if len(fb.vec) != 14+2 {
		t.Errorf("answer gathers %d buffers, want header + 14 ciphertexts + trailer", len(fb.vec))
	}

	const runs = 50
	stream := bytes.Repeat(fb.wire(), runs+2)
	fr := newFrameReader(bytes.NewReader(stream))
	if _, _, err := fr.next(nil); err != nil { // the stream's first large frame grows its buffer step by step
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(runs, func() { fr.next(nil) }); n != 1 {
		t.Errorf("reading an answer frame off a warm stream: %v allocs, want 1 (its buffer)", n)
	}

	decodeAllocs := func(cands, ctLen int) float64 {
		wire := encodeFrames(t, secRecAnswer(cands, ctLen))
		payload := wire[binfmt.HeaderSize : len(wire)-binfmt.TrailerSize]
		return testing.AllocsPerRun(runs, func() {
			var m message
			if err := decode(msgSecRecBatch|respBit, payload, &m); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, typical, large := decodeAllocs(1, 100), decodeAllocs(14, 8164), decodeAllocs(300, 20000)
	if small != typical || typical != large || typical > 4 {
		t.Errorf("decode allocations %v / %v / %v for 1, 14 and 300 candidates; want equal and at most 4", small, typical, large)
	}
}

// closedFormDeployment is a static index over users that share a handful
// of metadata values, served over loopback with ctLen-byte ciphertexts.
func closedFormDeployment(t *testing.T, l, d, stash, users, ctLen int) (*Client, *crypt.KeySet, core.Params, []lsh.Metadata) {
	t.Helper()
	keys, err := crypt.GenDeterministic("closed-form", l)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Tables: l, Capacity: core.CapacityFor(users, 0.5), ProbeRange: d, MaxLoop: 200, Seed: 1, StashSize: stash}
	metas := make([]lsh.Metadata, 4)
	for g := range metas {
		metas[g] = make(lsh.Metadata, l)
		for j := range metas[g] {
			metas[g][j] = uint64(1000*g + j)
		}
	}
	cs, client := startServer(t)
	items := make([]core.Item, users)
	for i := range items {
		items[i] = core.Item{ID: uint64(i + 1), Meta: metas[i%3]} // metas[3] matches nobody
		cs.PutProfile(items[i].ID, make([]byte, ctLen))
	}
	idx, err := core.Build(keys, items, p)
	if err != nil {
		t.Fatalf("Build(l=%d d=%d stash=%d): %v", l, d, stash, err)
	}
	cs.SetIndex(idx)
	return client, keys, p, metas
}

// TestWireBytesClosedForm is Fig. 4(b) as an assertion: the bytes one
// discovery puts on the wire are a closed-form function of the public
// parameters (l, d, stash), the candidate count and the ciphertext length
// — nothing else — and the request half does not depend on the target at
// all.
func TestWireBytesClosedForm(t *testing.T) {
	for _, tc := range []struct{ l, d, stash, users, ctLen int }{
		{l: 2, d: 1, stash: 0, users: 6, ctLen: 100},
		{l: 6, d: 4, stash: 0, users: 30, ctLen: 8164},
		{l: 3, d: 2, stash: 4, users: 9, ctLen: 1024},
		{l: 5, d: 0, stash: 2, users: 9, ctLen: 48},
	} {
		client, keys, p, metas := closedFormDeployment(t, tc.l, tc.d, tc.stash, tc.users, tc.ctLen)
		var requests []int64
		for _, meta := range metas {
			td, err := core.GenTpdr(keys, meta, p)
			if err != nil {
				t.Fatal(err)
			}
			tx0, rx0 := client.Traffic()
			ids, profiles, err := client.SecRecBatch(context.Background(), []*core.Trapdoor{td})
			if err != nil {
				t.Fatalf("%+v: SecRecBatch: %v", tc, err)
			}
			tx1, rx1 := client.Traffic()
			c := len(ids[0])
			if len(profiles[0]) != c {
				t.Fatalf("%+v: %d ids but %d profiles", tc, c, len(profiles[0]))
			}
			// frame header + (id, budget) + query count + [table and stash
			// counts, l entry counts, l·(d+1) (position, mask) pairs, stash
			// masks] + checksum.
			wantReq := 10 + 16 + 4 + (8 + 4*tc.l + (8+32)*tc.l*(tc.d+1) + 32*tc.stash) + 4
			// frame header + (id, status) + query count + candidate count +
			// c·(id + length + ciphertext) + checksum.
			wantResp := 10 + 9 + 4 + 4 + c*(8+4+tc.ctLen) + 4
			if got := tx1 - tx0; got != int64(wantReq) {
				t.Errorf("%+v: request frame %d bytes, closed form %d", tc, got, wantReq)
			}
			if got := rx1 - rx0; got != int64(wantResp) {
				t.Errorf("%+v, %d candidates: response frame %d bytes, closed form %d", tc, c, got, wantResp)
			}
			requests = append(requests, tx1-tx0)
		}
		for _, r := range requests {
			if r != requests[0] {
				t.Errorf("%+v: request frames for different targets differ in length: %v", tc, requests)
			}
		}
	}
}

// rawFrame builds a well-delimited, correctly checksummed frame around an
// arbitrary payload — the tool for sending a server (or a client) a body
// its decoder will refuse.
func rawFrame(version byte, typ msgType, payload []byte) []byte {
	b := le.AppendUint32(nil, binfmt.Magic)
	b = append(b, version, byte(typ))
	b = le.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return le.AppendUint32(b, binfmt.Sum(0, b))
}

// rawCall writes frame to conn and reads one response frame back.
func rawCall(t *testing.T, conn net.Conn, fr *frameReader, frame []byte) (msgType, []byte) {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := fr.next(nil)
	if err != nil {
		t.Fatalf("reading the response: %v", err)
	}
	return typ, payload
}

// fakeServer accepts one connection and answers each request frame with
// whatever reply returns for it (nil: no answer).
func fakeServer(t *testing.T, reply func(n int, req *message) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := newFrameReader(conn)
		for n := 0; ; n++ {
			typ, payload, err := fr.next(nil)
			if err != nil {
				return
			}
			var req message
			if err := decode(typ, payload, &req); err != nil {
				return
			}
			if out := reply(n, &req); out != nil {
				conn.Write(out)
			}
		}
	}()
	return ln.Addr().String()
}

// TestBadPayloadIsPerRequest covers the request-level failure class from
// every side: a request that cannot be encoded, a request frame whose body
// the server cannot parse, and a response frame whose body the client
// cannot parse each fail that one request with ErrBadPayload, and the very
// same connection serves the next call.
func TestBadPayloadIsPerRequest(t *testing.T) {
	ctx := context.Background()

	// Encode side: nothing reaches the wire.
	_, client := startServer(t)
	bad := &core.Trapdoor{Tables: [][]core.Entry{{{Pos: 1, Mask: []byte("not a 32-byte mask")}}}}
	sent, _ := client.Traffic()
	_, _, err := client.SecRecBatch(ctx, []*core.Trapdoor{bad})
	if !errors.Is(err, ErrBadPayload) || IsConnError(err) {
		t.Fatalf("unencodable request failed with %v, want a plain ErrBadPayload", err)
	}
	if now, _ := client.Traffic(); now != sent {
		t.Fatalf("unencodable request put %d bytes on the wire", now-sent)
	}
	if err := client.Ping(ctx); err != nil {
		t.Fatalf("ping after an encode failure, same connection: %v", err)
	}

	// Server side: an intact frame claiming five ids and holding one.
	conn, err := net.Dial("tcp", client.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := newFrameReader(conn)
	body := le.AppendUint64(le.AppendUint64(nil, 77), 0) // id 77, no budget
	body = le.AppendUint64(le.AppendUint32(body, 5), 1)
	typ, payload := rawCall(t, conn, fr, rawFrame(binfmt.Version, msgFetchProfiles, body))
	if _, err := open(msgFetchProfiles, inbound{typ, payload}); !errors.Is(err, ErrBadPayload) || IsConnError(err) {
		t.Fatalf("server answered an unparseable body with %v, want ErrBadPayload", err)
	}
	if id := le.Uint64(payload); id != 77 {
		t.Fatalf("bad-payload answer addressed to request %d, want 77", id)
	}
	typ, payload = rawCall(t, conn, fr, encodeFrames(t, &message{typ: msgPing, id: 78}))
	if _, err := open(msgPing, inbound{typ, payload}); err != nil {
		t.Fatalf("ping after a bad payload, same connection: %v", err)
	}
	// An unknown message type is a body nobody can parse, not a lost stream.
	typ, payload = rawCall(t, conn, fr, rawFrame(binfmt.Version, msgLast+1, make([]byte, reqPrefix)))
	if _, err := open(msgLast+1, inbound{typ, payload}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("unknown message type answered with %v, want ErrBadPayload", err)
	}

	// Client side: the first answer is intact but truncated inside its body.
	addr := fakeServer(t, func(n int, req *message) []byte {
		if n == 0 {
			body := append(le.AppendUint64(nil, req.id), statusOK, 0xff, 0xff)
			return rawFrame(binfmt.Version, req.typ|respBit, body)
		}
		return encodeFrames(t, &message{typ: req.typ | respBit, id: req.id, version: 5})
	})
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Version(ctx); !errors.Is(err, ErrBadPayload) || IsConnError(err) {
		t.Fatalf("unparseable response failed with %v, want a plain ErrBadPayload", err)
	}
	if v, err := c2.Version(ctx); err != nil || v != 5 {
		t.Fatalf("call after a bad response, same connection: %d, %v", v, err)
	}
}

// TestBadFramingIsFatalToItsConn covers the connection-level failure
// class at the client: each framing fault surfaces as a ConnError wrapping
// its typed cause, the connection is finished, and a second connection to
// the same server is untouched (shard.TestBadFramingDropsOnlyThatConn
// takes it from there to the pooled slot).
func TestBadFramingIsFatalToItsConn(t *testing.T) {
	ctx := context.Background()
	good := func(req *message) []byte { return encodeFrames(t, &message{typ: req.typ | respBit, id: req.id}) }
	for _, tc := range []struct {
		name  string
		cause error
		reply func(req *message) []byte
	}{
		{"magic", ErrBadMagic, func(req *message) []byte { b := good(req); b[0] ^= 1; return b }},
		{"checksum", ErrChecksum, func(req *message) []byte { b := good(req); b[len(b)-1] ^= 1; return b }},
		{"flipped body bit", ErrChecksum, func(req *message) []byte { b := good(req); b[binfmt.HeaderSize+2] ^= 4; return b }},
		{"length", ErrFrameTooLarge, func(req *message) []byte { b := good(req); le.PutUint32(b[6:], maxFrame+1); return b }},
		{"short prefix", ErrBadPayload, func(req *message) []byte { return rawFrame(binfmt.Version, req.typ|respBit, []byte{1, 2, 3}) }},
	} {
		addr := fakeServer(t, func(_ int, req *message) []byte { return tc.reply(req) })
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		err = c.Ping(ctx)
		var ce *ConnError
		if !errors.As(err, &ce) || ce.Op != "receive" || !errors.Is(err, tc.cause) {
			t.Errorf("%s: call failed with %v, want a receive ConnError wrapping %v", tc.name, err, tc.cause)
		}
		if err := c.Ping(ctx); !errors.Is(err, tc.cause) {
			t.Errorf("%s: connection still usable after a framing fault: %v", tc.name, err)
		}
		c.Close()
	}
	_, healthy := startServer(t)
	if err := healthy.Ping(ctx); err != nil {
		t.Fatalf("unrelated connection: %v", err)
	}
}

// TestVersionMismatch: a peer speaking version+1 is refused with
// ErrVersion on its first frame, whichever side receives it. The reader
// rejects the frame in either direction; a client drops the connection
// with the typed cause; a server drops that connection and keeps serving
// the others.
func TestVersionMismatch(t *testing.T) {
	ctx := context.Background()
	future := func(typ msgType, prefix int) []byte { return rawFrame(binfmt.Version+1, typ, make([]byte, prefix)) }
	for _, frame := range [][]byte{future(msgPing, reqPrefix), future(msgPing|respBit, respPrefix)} {
		if _, _, err := newFrameReader(bytes.NewReader(frame)).next(nil); !errors.Is(err, ErrVersion) {
			t.Fatalf("reader took a version-%d frame: %v", binfmt.Version+1, err)
		}
	}

	// A newer server answering this client.
	addr := fakeServer(t, func(_ int, req *message) []byte {
		return rawFrame(binfmt.Version+1, req.typ|respBit, append(le.AppendUint64(nil, req.id), statusOK))
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(ctx); !errors.Is(err, ErrVersion) || !IsConnError(err) {
		t.Fatalf("ping answered in version %d: %v, want a ConnError wrapping ErrVersion", binfmt.Version+1, err)
	}

	// A newer client calling this server.
	_, client := startServer(t)
	conn, err := net.Dial("tcp", client.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(future(msgPing, reqPrefix)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("server answered a version-%d frame with %d bytes, %v; want the connection dropped", binfmt.Version+1, n, err)
	}
	if err := client.Ping(ctx); err != nil {
		t.Fatalf("server stopped serving its other connections: %v", err)
	}
}

// TestBudgetTravelsWithTheRequest pins the client half of the deadline
// budget: what is left of the caller's bound at send time — the context's
// deadline or the connection-global timeout, whichever is less; zero when
// there is neither — rides in the request's fixed prefix, and a server's
// "expired" answer surfaces as a retryable deadline expiry that leaves the
// connection in place.
func TestBudgetTravelsWithTheRequest(t *testing.T) {
	budgets := make(chan time.Duration, 4)
	addr := fakeServer(t, func(n int, req *message) []byte {
		budgets <- req.budget
		resp := &message{typ: req.typ | respBit, id: req.id}
		if n == 3 {
			resp.status = statusExpired
		}
		return encodeFrames(t, resp)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b := <-budgets; b != 0 {
		t.Errorf("unbounded call sent budget %v, want 0", b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if b := <-budgets; b <= 0 || b > 2*time.Second {
		t.Errorf("call under a 2 s deadline sent budget %v", b)
	}
	c.SetTimeout(500 * time.Millisecond)
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if b := <-budgets; b != 500*time.Millisecond {
		t.Errorf("call under a 500 ms connection timeout sent budget %v", b)
	}
	err = c.Ping(ctx)
	<-budgets
	if !errors.Is(err, ErrExpired) || !errors.Is(err, context.DeadlineExceeded) || !IsConnError(err) {
		t.Errorf("expired answer surfaced as %v, want a ConnError wrapping ErrExpired", err)
	}
	c.mu.Lock()
	broken := c.broken
	c.mu.Unlock()
	if broken != nil {
		t.Errorf("an expired request broke the connection: %v", broken)
	}
}

// TestExpiredBudgetSkipsIndex pins the server half: a request whose budget
// ran out while it waited behind the connection's worker pool is answered
// "expired" without touching the index. The one worker is stalled writing
// an 8 MB answer nobody reads; the two discoveries behind it carry a 20 ms
// budget and are picked up 150 ms later — the first parked at the worker
// semaphore, the second in the connection's read-ahead behind it, aged
// from the socket read that brought both in and not from the moment the
// reader got round to it. (A request still in the kernel's socket buffer
// is not aged while it sits there; see serveConn.)
func TestExpiredBudgetSkipsIndex(t *testing.T) {
	keys, err := crypt.GenDeterministic("expiry", 3)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Tables: 3, Capacity: 64, ProbeRange: 2, MaxLoop: 100, Seed: 1}
	meta := lsh.Metadata{1, 2, 3}
	idx, err := core.Build(keys, []core.Item{{ID: 1, Meta: meta}}, p)
	if err != nil {
		t.Fatal(err)
	}
	td, err := core.GenTpdr(keys, meta, p)
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	ids := make([]uint64, 64)
	for i := range ids {
		ids[i] = uint64(i + 1)
		cs.PutProfile(ids[i], make([]byte, 128<<10))
	}
	srv := NewServer(cs)
	srv.SetWorkersPerConn(1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A fixed, small receive buffer: the server's write must block on this
	// test not reading, not disappear into an autotuned window.
	conn.(*net.TCPConn).SetReadBuffer(32 << 10)
	queries, unmasked := obs.Default.Counter("cloud.queries"), obs.Default.Counter("cloud.buckets_unmasked")
	q0, u0 := queries.Load(), unmasked.Load()

	discovery := func(id uint64, budget time.Duration) *message {
		return &message{typ: msgSecRecBatch, id: id, budget: budget, trapdoors: []*core.Trapdoor{td}}
	}
	if _, err := conn.Write(encodeFrames(t,
		&message{typ: msgFetchProfiles, id: 1, ids: ids},
		discovery(2, 20*time.Millisecond),
		discovery(3, 20*time.Millisecond),
	)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := newFrameReader(conn)
	typ, payload, err := fr.next(nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := open(msgFetchProfiles, inbound{typ, payload}); err != nil || len(resp.blobs) != len(ids) {
		t.Fatalf("the stalling fetch itself: %v", err)
	}
	for _, where := range []string{"parked at the semaphore", "waiting in the read-ahead"} {
		typ, payload, err = fr.next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := open(msgSecRecBatch, inbound{typ, payload}); !errors.Is(err, ErrExpired) {
			t.Fatalf("discovery %s past its budget answered %v, want ErrExpired", where, err)
		}
	}
	if q, u := queries.Load()-q0, unmasked.Load()-u0; q != 0 || u != 0 {
		t.Fatalf("an expired discovery still ran: cloud.queries +%d, cloud.buckets_unmasked +%d", q, u)
	}

	// Control: the same request inside its budget runs.
	typ, payload = rawCall(t, conn, fr, encodeFrames(t, discovery(4, 10*time.Second)))
	resp, err := open(msgSecRecBatch, inbound{typ, payload})
	if err != nil || len(resp.batchIDs) != 1 || len(resp.batchIDs[0]) != 1 {
		t.Fatalf("discovery inside its budget: %v", err)
	}
	if q, u := queries.Load()-q0, unmasked.Load()-u0; q != 1 || u != int64(p.BucketsPerQuery()) {
		t.Fatalf("control discovery moved cloud.queries by %d and cloud.buckets_unmasked by %d", q, u)
	}
}

// TestWireAnswersRaceProfileStore pins what lets the server write answers
// straight out of the profile store after the read lock is gone: the store
// replaces and unlinks slices but never writes into one it has handed
// out. Writers hammer PutProfile/DeleteProfile on the very ids that
// discoveries and fetches are returning; every ciphertext that arrives
// must be one generation's bytes in full (run under -race).
func TestWireAnswersRaceProfileStore(t *testing.T) {
	const users, ctLen = 8, 4096
	keys, err := crypt.GenDeterministic("store-race", 3)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Tables: 3, Capacity: 64, ProbeRange: 3, MaxLoop: 200, Seed: 1}
	meta := lsh.Metadata{4, 5, 6}
	ids := make([]uint64, users)
	items := make([]core.Item, users)
	for i := range items {
		ids[i] = uint64(i + 1)
		items[i] = core.Item{ID: ids[i], Meta: meta}
	}
	idx, err := core.Build(keys, items, p)
	if err != nil {
		t.Fatal(err)
	}
	td, err := core.GenTpdr(keys, meta, p)
	if err != nil {
		t.Fatal(err)
	}
	cs, client := startServer(t)
	cs.SetIndex(idx)
	generation := func(id uint64, gen byte) []byte {
		return append(le.AppendUint64(nil, id), bytes.Repeat([]byte{gen}, ctLen-8)...)
	}
	whole := func(id uint64, ct []byte) bool {
		if len(ct) == 0 {
			return true // deleted at that instant
		}
		return len(ct) == ctLen && le.Uint64(ct) == id && bytes.Count(ct[8:], ct[8:9]) == ctLen-8
	}
	for _, id := range ids {
		cs.PutProfile(id, generation(id, 0))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gen := byte(1); !stop.Load(); gen++ {
				for _, id := range ids {
					if (int(id)+int(gen)+w)%5 == 0 {
						cs.DeleteProfile(id)
					} else {
						cs.PutProfile(id, generation(id, gen))
					}
				}
			}
		}(w)
	}
	for round := 0; round < 150; round++ {
		gotIDs, profiles, err := client.SecRecBatch(context.Background(), []*core.Trapdoor{td, td})
		if err != nil {
			t.Errorf("SecRecBatch under churn: %v", err)
			break
		}
		for q := range gotIDs {
			for i, id := range gotIDs[q] {
				if !whole(id, profiles[q][i]) {
					t.Errorf("discovery returned a torn ciphertext for id %d", id)
				}
			}
		}
		fetched, err := client.FetchProfiles(ids)
		if err != nil {
			t.Errorf("FetchProfiles under churn: %v", err)
			break
		}
		for i, ct := range fetched {
			if !whole(ids[i], ct) {
				t.Errorf("fetch returned a torn ciphertext for id %d", ids[i])
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

// faultyServer serves a cloud server through a faultnet listener, so the
// server's answers — multi-buffer gather lists — cross the fault injector.
func faultyServer(t *testing.T, fn *faultnet.Network, cs *cloud.Server) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cs)
	if err := srv.Serve(fn.WrapListener("cs", ln)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestFaultnetDropIsFrameGranular pins the contract between the vectored
// write and the fault injector: a frame is one WriteBuffers call and one
// fault decision, however many buffers it gathers. With DropProb = 1 on
// one write the answer vanishes whole and the next call on the same
// connection succeeds; with DropProb = 0.5 over many 14-buffer answers
// every call either times out or returns intact data, and the stream never
// loses framing — which it would at once if each buffer drew its own fate.
func TestFaultnetDropIsFrameGranular(t *testing.T) {
	ids := make([]uint64, 12)
	want := make([][]byte, len(ids))
	for _, tc := range []struct {
		prob  float64
		calls int
	}{{1, 1}, {0.5, 24}} {
		fn := faultnet.New(faultnet.Plan{Seed: 3, DropProb: tc.prob})
		fn.SetEnabled(false)
		cs := cloud.New()
		for i := range ids {
			ids[i] = uint64(i + 1)
			want[i] = bytes.Repeat([]byte{byte(i + 1)}, 2*gatherMin)
			cs.PutProfile(ids[i], want[i])
		}
		client := faultyServer(t, fn, cs)
		client.SetTimeout(40 * time.Millisecond)
		fetch := func() error {
			got, err := client.FetchProfiles(ids)
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("drop %.1f: an answer arrived damaged", tc.prob)
			}
			return err
		}
		if err := fetch(); err != nil {
			t.Fatal(err)
		}
		fn.SetEnabled(true)
		dropped := 0
		for i := 0; i < tc.calls; i++ {
			if err := fetch(); err != nil {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("drop %.1f: call %d failed with %v, want only timeouts", tc.prob, i, err)
				}
				dropped++
			}
		}
		fn.SetEnabled(false)
		if dropped == 0 || (tc.prob < 1 && dropped == tc.calls) {
			t.Fatalf("drop %.1f: %d of %d answers dropped; the schedule did not exercise both outcomes", tc.prob, dropped, tc.calls)
		}
		if err := fetch(); err != nil {
			t.Fatalf("drop %.1f: call on the same connection after %d dropped frames: %v", tc.prob, dropped, err)
		}
	}
}
