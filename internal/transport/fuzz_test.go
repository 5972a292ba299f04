package transport

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"pisd/internal/binfmt"
	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/lsh"
)

// encodeFrames encodes the given messages into one contiguous wire stream,
// exactly as a live peer would produce it.
func encodeFrames(tb testing.TB, msgs ...*message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := sendFrames(&frameWriter{w: &buf}, msgs...); err != nil {
		tb.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// sendFrames encodes msgs and writes each as one frame through fw.
func sendFrames(fw *frameWriter, msgs ...*message) error {
	fb := new(frameBuf)
	for _, m := range msgs {
		if err := fb.encode(m); err != nil {
			return err
		}
		if err := fw.write(fb); err != nil {
			return err
		}
	}
	return nil
}

// lyingFrame is a header declaring a maxFrame-byte payload with one byte
// of body behind it.
func lyingFrame() []byte {
	b := le.AppendUint32(nil, binfmt.Magic)
	b = append(b, binfmt.Version, byte(msgPutProfiles))
	b = le.AppendUint32(b, maxFrame)
	return append(b, 0xaa)
}

// sampleMessages is one well-formed message per type and direction (plus
// the non-OK statuses), with every list non-empty and both small and
// spliced-by-reference byte strings.
func sampleMessages() []*message {
	mask := func(b byte) []byte { return bytes.Repeat([]byte{b}, core.BucketSize) }
	big := bytes.Repeat([]byte{0xc7}, gatherMin+13)
	td := &core.Trapdoor{
		Tables: [][]core.Entry{{{Pos: 3, Mask: mask(1)}, {Pos: 9, Mask: mask(2)}}, {{Pos: 1 << 40, Mask: mask(3)}}},
		Stash:  [][]byte{mask(4), mask(5)},
	}
	refs := []core.BucketRef{{Table: 0, Pos: 7}, {Table: 5, Pos: 1 << 33}}
	buckets := []core.DynBucket{{Masked: []byte("masked-0"), EncR: []byte("r0")}, {Masked: big, EncR: []byte("r1")}}
	reqs := []*message{
		{typ: msgPing},
		{typ: msgInstallIndex, blobs: [][]byte{big}},
		{typ: msgInstallDynIndex, blobs: [][]byte{[]byte("dyn")}},
		{typ: msgSecRecBatch, budget: 5 * time.Second, trapdoors: []*core.Trapdoor{td, {}}},
		{typ: msgFetchProfiles, ids: []uint64{1, 2, 1 << 60}},
		{typ: msgPutProfiles, ids: []uint64{4, 5}, blobs: [][]byte{big, []byte("ct")}},
		{typ: msgDeleteProfile, user: 77},
		{typ: msgFetchBuckets, refs: refs},
		{typ: msgStoreBuckets, version: 9, refs: refs, buckets: buckets},
		{typ: msgStoreImage, user: 3, blobs: [][]byte{[]byte("image")}},
		{typ: msgFetchImages, user: 3},
		{typ: msgVersion, budget: time.Millisecond},
		{typ: msgSetVersion, version: 1 << 50},
		{typ: msgProfileIDs},
	}
	resps := []*message{
		{typ: msgPing | respBit},
		{typ: msgInstallIndex | respBit},
		{typ: msgInstallDynIndex | respBit},
		{typ: msgSecRecBatch | respBit, batchIDs: [][]uint64{{10, 11}, nil, {12}}, batchBlobs: [][][]byte{{big, big}, nil, {[]byte("short")}}},
		{typ: msgFetchProfiles | respBit, blobs: [][]byte{big, nil, []byte("x")}},
		{typ: msgPutProfiles | respBit},
		{typ: msgDeleteProfile | respBit},
		{typ: msgFetchBuckets | respBit, buckets: buckets},
		{typ: msgStoreBuckets | respBit},
		{typ: msgStoreImage | respBit},
		{typ: msgFetchImages | respBit, blobs: [][]byte{[]byte("a"), big}},
		{typ: msgVersion | respBit, version: 42},
		{typ: msgSetVersion | respBit},
		{typ: msgProfileIDs | respBit, ids: []uint64{1, 5, 9}},
		{typ: msgSecRecBatch | respBit, status: statusRemote, errMsg: "cloud: no index installed"},
		{typ: msgSecRecBatch | respBit, status: statusExpired},
		{typ: msgPutProfiles | respBit, status: statusBadPayload, errMsg: "body ends early"},
	}
	all := append(reqs, resps...)
	for i, m := range all {
		m.id = uint64(i) * 0x0101010101
	}
	return all
}

// rawBody strips a single encoded frame down to what decode sees: the type
// byte, then the payload.
func rawBody(frame []byte) []byte {
	return append([]byte{frame[5]}, frame[binfmt.HeaderSize:len(frame)-binfmt.TrailerSize]...)
}

// footprint is the memory decode left m holding, from the capacities of
// its slices.
func (m *message) footprint() int {
	return len(m.errMsg) + 8*cap(m.ids) + 24*cap(m.blobs) + 16*cap(m.refs) + 48*cap(m.buckets) +
		8*cap(m.trapdoors) + 24*cap(m.batchIDs) + 24*cap(m.batchBlobs) +
		48*cap(m.tdStore) + 24*cap(m.tables) + 32*cap(m.entries) + 24*cap(m.masks)
}

// checkRawDecode hands payload to decode as typ with no frame — and so no
// checksum — around it, which is how a body's counts and lengths are
// reached by bytes nobody computed a CRC over. Whatever the bytes, decode
// must not panic, must fail only with ErrBadPayload, must not size memory
// by a count the payload cannot back (a fresh message ends up holding at
// most a constant times the payload), and what it accepts must be
// canonical: re-encoded, it is the same payload.
func checkRawDecode(t *testing.T, typ msgType, payload []byte) {
	t.Helper()
	var m message
	if err := decode(typ, payload, &m); err != nil {
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("decode of a raw %v failed with %v, want ErrBadPayload", typ, err)
		}
	} else {
		fb := new(frameBuf)
		if err := fb.encode(&m); err != nil {
			t.Fatalf("re-encode of a decoded raw %v: %v", typ, err)
		}
		if w := fb.wire(); !bytes.Equal(w[binfmt.HeaderSize:len(w)-binfmt.TrailerSize], payload) {
			t.Fatalf("raw %v does not re-encode to the payload it was decoded from", typ)
		}
	}
	if got, limit := m.footprint(), 16*len(payload)+64; got > limit {
		t.Fatalf("decoding a %d-byte raw %v left %d bytes allocated, want at most %d", len(payload), typ, got, limit)
	}
}

// TestDecodeTruncatedAtEveryOffset cuts every sample payload short at every
// offset (and, at every offset, sets a byte to 0xff so counts and lengths
// lie) and holds decode to checkRawDecode's terms.
func TestDecodeTruncatedAtEveryOffset(t *testing.T) {
	for _, m := range sampleMessages() {
		raw := rawBody(encodeFrames(t, m))
		typ, payload := msgType(raw[0]), raw[1:]
		for cut := 0; cut <= len(payload); cut++ {
			checkRawDecode(t, typ, payload[:cut])
		}
		lying := append([]byte(nil), payload...)
		for i := range lying {
			lying[i] = 0xff
			checkRawDecode(t, typ, lying)
			lying[i] = payload[i]
		}
	}
}

// FuzzFrameDecode throws arbitrary bytes at the read side every connection
// runs, in both directions, twice over. As a stream, through the frame
// reader + decoder pair: whatever the bytes — bad magic, lying lengths,
// torn headers, truncated payloads, flipped bits, frames spliced from
// different streams — reading must terminate with a typed error or clean
// EOF, never panic, never spin, never report more consumed bytes than were
// on the wire, and fail a body only with ErrBadPayload. And, because a
// mutated body all but never passes the reader's checksum, as one bare
// type byte + payload straight into decode, as a request and as a response
// (checkRawDecode). The format is canonical, so whatever decodes either
// way must re-encode to the very bytes it came from.
func FuzzFrameDecode(f *testing.F) {
	msgs := sampleMessages()
	valid := encodeFrames(f, msgs[0])
	f.Add(valid)
	// Two frames with interleaved request IDs, as a pipelined server
	// writes them: completion order, not request order.
	f.Add(encodeFrames(f,
		&message{typ: msgProfileIDs | respBit, id: 7, ids: []uint64{1, 2, 3}},
		&message{typ: msgPing | respBit, id: 3, status: statusRemote, errMsg: "later request answered first"},
	))
	// Truncated payload: a frame whose declared length exceeds the bytes
	// behind it.
	f.Add(valid[:len(valid)-3])
	// Torn header.
	f.Add(valid[:2])
	// Oversized declared length.
	huge := append([]byte(nil), valid[:binfmt.HeaderSize]...)
	le.PutUint32(huge[6:], maxFrame+1)
	f.Add(huge)
	// Zero-length frame followed by a valid one.
	empty := append([]byte(nil), valid[:binfmt.HeaderSize]...)
	le.PutUint32(empty[6:], 0)
	f.Add(append(empty, valid...))
	// Garbage behind a plausible header.
	f.Add(append(append([]byte(nil), valid[:binfmt.HeaderSize]...), 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe))
	// A lying length: maxFrame declared, one byte of body.
	f.Add(lyingFrame())
	// Every message type, each direction, alone and as one stream.
	for _, m := range msgs {
		f.Add(encodeFrames(f, m))
	}
	f.Add(encodeFrames(f, msgs...))
	// Bare bodies for the raw pass: each sample whole, and cut short at
	// every offset of its structure (thinned out over the bulk bytes).
	for _, m := range msgs {
		raw := rawBody(encodeFrames(f, m))
		for cut := len(raw); cut > 0; cut-- {
			if cut <= 256 || cut%61 == 0 || cut == len(raw) {
				f.Add(raw[:cut:cut])
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			checkRawDecode(t, msgType(data[0])&^respBit, data[1:])
			checkRawDecode(t, msgType(data[0])|respBit, data[1:])
		}
		fr := newFrameReader(bytes.NewReader(data))
		var m message
		fb := new(frameBuf)
		for frames, off := 0, 0; ; frames++ {
			typ, payload, err := fr.next(nil)
			if err != nil {
				return // every malformed stream must end in an error or EOF
			}
			if fr.n > int64(len(data)) {
				t.Fatalf("reader claims %d consumed bytes of a %d-byte input", fr.n, len(data))
			}
			if frames > len(data) {
				t.Fatalf("read %d frames from %d bytes; reader is spinning", frames, len(data))
			}
			frame := data[off:fr.n]
			off = int(fr.n)
			if err := decode(typ, payload, &m); err != nil {
				if !errors.Is(err, ErrBadPayload) {
					t.Fatalf("decode failed with %v, want ErrBadPayload", err)
				}
				continue
			}
			if err := fb.encode(&m); err != nil {
				t.Fatalf("re-encode of a decoded %v: %v", typ, err)
			}
			if !bytes.Equal(fb.wire(), frame) {
				t.Fatalf("%v does not re-encode to the frame it was decoded from", typ)
			}
		}
	})
}

// FuzzServerAnswer feeds an arbitrary (type, payload) request through the
// server's request path against a real cloud server holding a small index,
// profiles and a dynamic index. Any answer must be one well-formed response
// frame, and none may carry the recovered-panic refusal: dispatch's recover
// keeps a panicking handler from killing the server, and this target keeps
// it from hiding one.
func FuzzServerAnswer(f *testing.F) {
	for _, m := range sampleMessages() {
		if m.typ&respBit == 0 {
			f.Add(byte(m.typ), rawBody(encodeFrames(f, m))[1:])
		}
	}
	srv := NewServer(fuzzCloud(f))
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		ex := &exchange{typ: msgType(typ), payload: payload, arrival: time.Now()}
		var out bytes.Buffer
		if err := srv.answer(ex, &frameWriter{w: &out}); err != nil {
			t.Fatalf("answer: %v", err)
		}
		fr := newFrameReader(&out)
		rtyp, body, err := fr.next(nil)
		if err != nil {
			t.Fatalf("answer wrote no readable frame: %v", err)
		}
		var resp message
		if err := decode(rtyp, body, &resp); err != nil {
			t.Fatalf("answer frame does not decode: %v", err)
		}
		if strings.HasPrefix(resp.errMsg, handlerPanic) {
			t.Fatalf("%v handler panicked: %s", msgType(typ), resp.errMsg)
		}
	})
}

// fuzzCloud is a cloud server with something behind every handler: a
// static index, a dynamic index and a few profiles.
func fuzzCloud(tb testing.TB) *cloud.Server {
	keys, err := crypt.GenDeterministic("fuzz-server", 2)
	if err != nil {
		tb.Fatal(err)
	}
	p := core.Params{Tables: 2, Capacity: 16, ProbeRange: 1, MaxLoop: 50, Seed: 1, StashSize: 2}
	items := []core.Item{{ID: 1, Meta: lsh.Metadata{1, 2}}, {ID: 2, Meta: lsh.Metadata{3, 4}}}
	idx, err := core.Build(keys, items, p)
	if err != nil {
		tb.Fatal(err)
	}
	dyn, _, err := core.BuildDynamic(keys, items, p)
	if err != nil {
		tb.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.SetDynIndex(dyn)
	cs.PutProfiles(map[uint64][]byte{1: []byte("ct-1"), 2: []byte("ct-2")})
	return cs
}

// TestLyingLengthIsNotAllocated pins the reader's allocation bound: a
// header may declare a gigabyte, but memory follows the bytes that
// actually arrive — here one — plus at most growStep.
func TestLyingLengthIsNotAllocated(t *testing.T) {
	data := lyingFrame()
	fr := newFrameReader(bytes.NewReader(data))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := fr.next(nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying frame read as %v, want ErrTruncated", err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data)+growStep+4096); got > limit {
		t.Fatalf("reading %d bytes behind a %d-byte declared length allocated %d bytes, want at most %d", len(data), maxFrame, got, limit)
	}
}

// TestFrameDecodeInterleavedIDs pins the codec-level half of response
// multiplexing: frames written in completion order decode in that order
// with their request IDs and payloads intact, so the client's reader can
// route each to its caller.
func TestFrameDecodeInterleavedIDs(t *testing.T) {
	msgs := []*message{
		{typ: msgProfileIDs | respBit, id: 2, ids: []uint64{20}},
		{typ: msgProfileIDs | respBit, id: 0, ids: []uint64{10}},
		{typ: msgPing | respBit, id: 1, status: statusRemote, errMsg: "third"},
	}
	fr := newFrameReader(bytes.NewReader(encodeFrames(t, msgs...)))
	for i, want := range msgs {
		typ, payload, err := fr.next(nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var got message
		if err := decode(typ, payload, &got); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.id != want.id {
			t.Fatalf("frame %d carried ID %d, want %d", i, got.id, want.id)
		}
		if got.errMsg != want.errMsg {
			t.Fatalf("frame %d error %q, want %q", i, got.errMsg, want.errMsg)
		}
		if len(want.ids) > 0 && (len(got.ids) != len(want.ids) || got.ids[0] != want.ids[0]) {
			t.Fatalf("frame %d payload %v, want %v", i, got.ids, want.ids)
		}
	}
	if _, _, err := fr.next(nil); err != io.EOF {
		t.Fatalf("stream must end cleanly, got %v", err)
	}
}

// TestFrameReaderRejectsOversizedFrame pins the fail-fast path for a
// corrupt length field.
func TestFrameReaderRejectsOversizedFrame(t *testing.T) {
	hdr := encodeFrames(t, &message{typ: msgPing})[:binfmt.HeaderSize]
	le.PutUint32(hdr[6:], maxFrame+1)
	if _, _, err := newFrameReader(bytes.NewReader(hdr)).next(nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame read as %v, want ErrFrameTooLarge", err)
	}
}

// wire returns the encoded frame as one contiguous slice.
func (fb *frameBuf) wire() []byte {
	var out []byte
	for _, b := range fb.vec {
		out = append(out, b...)
	}
	return out
}
