package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pisd/internal/binfmt"
	"pisd/internal/core"
)

// The wire codec: one binfmt frame for every RPC, in both directions
// (DESIGN.md "Wire format" has the per-type byte tables). The RPC types
// are 1–14, bit 7 set on a response:
//
//	request payload:  id(8) | budget_ns(8) | body
//	response payload: id(8) | status(1)    | body
//
// Every id, position, count and length is fixed-width, so a frame's size
// is a function of the public parameters (l, d, stash, batch size,
// candidate count, ciphertext length) and never of the values carried. A
// response's type is its request's with respBit set, so either direction
// decodes without context.
//
// Two failure classes. A frame whose magic, version, length or checksum is
// wrong means the byte stream itself cannot be trusted: the reader returns
// the typed cause and the connection is dropped. A frame that is intact
// but whose body does not parse (or a message that cannot be encoded)
// fails only the request it belongs to, with ErrBadPayload, and the
// connection carries on.

// Typed codec errors; match with errors.Is. The first five are framing
// failures and arrive wrapped in a ConnError. All but ErrFrameTooLarge and
// ErrExpired are binfmt's, shared with every frame codec.
var (
	ErrBadMagic = binfmt.ErrBadMagic
	ErrVersion  = binfmt.ErrVersion
	// ErrFrameTooLarge reports a frame over maxFrame, declared by a peer or
	// about to be produced by an encode.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	ErrTruncated     = binfmt.ErrTruncated
	ErrChecksum      = binfmt.ErrChecksum
	ErrBadPayload    = binfmt.ErrBadPayload
	// ErrExpired reports a request the server dropped unexecuted because
	// the caller's deadline budget ran out while it waited for a worker.
	// It is a deadline expiry: errors.Is(err, context.DeadlineExceeded).
	ErrExpired = fmt.Errorf("transport: request expired in the server queue: %w", context.DeadlineExceeded)
)

const (
	reqPrefix  = 8 + 8
	respPrefix = 8 + 1

	// maxFrame bounds a single frame's payload; an index install for
	// millions of users fits, a corrupt length fails fast.
	maxFrame = 1 << 30
	// readBufSize sizes the connection read-ahead: a request frame and the
	// header of whatever follows arrive in one read, while the bulk of a
	// large payload bypasses it and lands directly in the frame's buffer.
	readBufSize = 1 << 14
	// growStep is how much of a declared length a reader believes before
	// any of it has arrived on a stream that has not yet delivered a frame
	// that large; see frameReader.fill.
	growStep = 1 << 16
	// gatherMin is the smallest byte string an encoder splices into the
	// frame by reference (one more iovec of the writev) instead of copying
	// into the header buffer. An iovec per 32-byte mask plainly loses to the
	// copy and an 8 KB ciphertext plainly wins by it; where between 1 and
	// 4 KB the two cross was looked for on ingest-build's 1.6 KB ciphertexts
	// and not resolved (EXPERIMENTS.md), so this is a round number, not a
	// measured one.
	gatherMin = 1 << 10
)

var le = binary.LittleEndian

// msgType is the frame's type byte: the RPC, plus respBit on its answer.
type msgType byte

const (
	msgPing msgType = iota + 1
	msgInstallIndex
	msgInstallDynIndex
	msgSecRecBatch
	msgFetchProfiles
	msgPutProfiles
	msgDeleteProfile
	msgFetchBuckets
	msgStoreBuckets
	msgStoreImage
	msgFetchImages
	msgVersion
	msgSetVersion
	msgProfileIDs

	msgLast = msgProfileIDs
	respBit = msgType(0x80)
)

var msgNames = [...]string{
	msgPing: "Ping", msgInstallIndex: "InstallIndex", msgInstallDynIndex: "InstallDynIndex",
	msgSecRecBatch: "SecRecBatch", msgFetchProfiles: "FetchProfiles", msgPutProfiles: "PutProfiles",
	msgDeleteProfile: "DeleteProfile", msgFetchBuckets: "FetchBuckets", msgStoreBuckets: "StoreBuckets",
	msgStoreImage: "StoreImage", msgFetchImages: "FetchImages", msgVersion: "Version",
	msgSetVersion: "SetVersion", msgProfileIDs: "ProfileIDs",
}

func (t msgType) String() string {
	if m := t &^ respBit; m >= msgPing && m <= msgLast {
		if t&respBit != 0 {
			return msgNames[m] + " response"
		}
		return msgNames[m]
	}
	return fmt.Sprintf("message type %#x", byte(t))
}

// Response status byte.
const (
	statusOK         = 0
	statusRemote     = 1 // the application refused; body is its error text
	statusExpired    = 2 // deadline budget ran out before a worker picked it up
	statusBadPayload = 3 // the request frame was intact but did not parse; body says why
)

// message is one frame's content: the fixed prefix plus whichever body
// fields its type carries (the switches in appendBody and decodeBody are
// the format). Decoding reuses the capacity of a message's slices, and
// every decoded byte string — ciphertext, blob, mask, Masked/EncR — is a
// capacity-capped sub-slice of the frame's buffer, not a copy.
type message struct {
	typ    msgType
	id     uint64        // connection-unique request id
	budget time.Duration // request: caller's remaining deadline budget at send; 0 = none
	status byte          // response: statusOK or why the request failed
	errMsg string        // response: error text when status != statusOK

	user, version uint64
	ids           []uint64
	blobs         [][]byte // ciphertexts, image blobs, or one encoded index
	refs          []core.BucketRef
	buckets       []core.DynBucket
	trapdoors     []*core.Trapdoor
	// A SecRecBatch answer, one entry per query. Decoded, the entries are
	// windows onto ids and blobs.
	batchIDs   [][]uint64
	batchBlobs [][][]byte

	// Backing store of decoded trapdoors.
	tdStore []core.Trapdoor
	tables  [][]core.Entry
	entries []core.Entry
	masks   [][]byte
}

// frameBuf is the reusable encode state of one outbound frame: head holds
// the bytes the codec writes itself, cuts the places where a caller's byte
// string is spliced in by reference, vec the resulting gather list.
type frameBuf struct {
	head []byte
	cuts []cut
	vec  net.Buffers
	// rest is the copy of vec a write consumes (net.Buffers.WriteTo advances
	// the slice it is called on); it lives here so taking its address does
	// not allocate.
	rest net.Buffers
	size int // encoded frame length, header and trailer included
}

// cut splices ext into the frame before head[at].
type cut struct {
	at  int
	ext []byte
}

var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

func (fb *frameBuf) u8(v byte)    { fb.head = append(fb.head, v) }
func (fb *frameBuf) u32(v uint32) { fb.head = le.AppendUint32(fb.head, v) }
func (fb *frameBuf) u64(v uint64) { fb.head = le.AppendUint64(fb.head, v) }

// bytes appends b to the frame: large strings by reference, small ones by
// copy (an iovec per 32-byte mask would cost more than the copy).
func (fb *frameBuf) bytes(b []byte) {
	if len(b) >= gatherMin {
		fb.cuts = append(fb.cuts, cut{at: len(fb.head), ext: b})
		return
	}
	fb.head = append(fb.head, b...)
}

func (fb *frameBuf) idList(ids []uint64) {
	fb.u32(uint32(len(ids)))
	for _, id := range ids {
		fb.u64(id)
	}
}

// blobList writes n, the n lengths, then the byte strings back to back, so
// a decoder sizes everything before it reaches the bulk.
func (fb *frameBuf) blobList(blobs [][]byte) {
	fb.u32(uint32(len(blobs)))
	for _, b := range blobs {
		fb.u32(uint32(len(b)))
	}
	for _, b := range blobs {
		fb.bytes(b)
	}
}

func (fb *frameBuf) refList(refs []core.BucketRef) {
	fb.u32(uint32(len(refs)))
	for _, r := range refs {
		fb.u32(uint32(int32(r.Table)))
		fb.u64(r.Pos)
	}
}

func (fb *frameBuf) bucketList(buckets []core.DynBucket) {
	fb.u32(uint32(len(buckets)))
	for _, b := range buckets {
		fb.u32(uint32(len(b.Masked)))
		fb.u32(uint32(len(b.EncR)))
	}
	for _, b := range buckets {
		fb.bytes(b.Masked)
		fb.bytes(b.EncR)
	}
}

// trapdoorList writes each trapdoor as its table count, stash count and
// per-table entry counts, then every (position, mask) pair and stash mask.
// Masks are exactly core.BucketSize bytes, which is what makes the request
// a constant 8 + 4l + 40·l·(d+1) + 32·stash bytes per query.
func (fb *frameBuf) trapdoorList(ts []*core.Trapdoor) error {
	fb.u32(uint32(len(ts)))
	for q, t := range ts {
		if t == nil {
			return fmt.Errorf("%w: trapdoor %d is nil", ErrBadPayload, q)
		}
		fb.u32(uint32(len(t.Tables)))
		fb.u32(uint32(len(t.Stash)))
		for _, entries := range t.Tables {
			fb.u32(uint32(len(entries)))
		}
		for _, entries := range t.Tables {
			for _, e := range entries {
				if len(e.Mask) != core.BucketSize {
					return fmt.Errorf("%w: trapdoor %d carries a %d-byte mask, want %d", ErrBadPayload, q, len(e.Mask), core.BucketSize)
				}
				fb.u64(e.Pos)
				fb.head = append(fb.head, e.Mask...)
			}
		}
		for _, mask := range t.Stash {
			if len(mask) != core.BucketSize {
				return fmt.Errorf("%w: trapdoor %d carries a %d-byte stash mask, want %d", ErrBadPayload, q, len(mask), core.BucketSize)
			}
			fb.head = append(fb.head, mask...)
		}
	}
	return nil
}

// encode lays m out as one frame, ready for frameWriter.write. A failure
// (ErrBadPayload, ErrFrameTooLarge) concerns m alone: nothing has been
// written, so the connection is unaffected.
func (fb *frameBuf) encode(m *message) error {
	fb.head = binfmt.AppendHeader(fb.head[:0], byte(m.typ), 0) // length rewritten below
	fb.cuts, fb.vec = fb.cuts[:0], fb.vec[:0]
	fb.u64(m.id)
	if m.typ&respBit == 0 {
		fb.u64(uint64(m.budget))
	} else {
		fb.u8(m.status)
	}
	if err := fb.appendBody(m); err != nil {
		return err
	}
	payload := len(fb.head) - binfmt.HeaderSize
	for _, c := range fb.cuts {
		payload += len(c.ext)
	}
	if payload > maxFrame {
		return fmt.Errorf("%w: %v of %d bytes", ErrFrameTooLarge, m.typ, payload)
	}
	binfmt.AppendHeader(fb.head[:0], byte(m.typ), payload) // in place

	// The checksum walks the frame in wire order: head up to each cut, the
	// spliced string, and so on. The gather list is assembled only once the
	// trailer is in head, so no entry points into a buffer append has left.
	sum, from := uint32(0), 0
	for _, c := range fb.cuts {
		sum = binfmt.Sum(sum, fb.head[from:c.at])
		sum = binfmt.Sum(sum, c.ext)
		from = c.at
	}
	sum = binfmt.Sum(sum, fb.head[from:])
	fb.u32(sum)
	from = 0
	for _, c := range fb.cuts {
		if c.at > from {
			fb.vec = append(fb.vec, fb.head[from:c.at])
			from = c.at
		}
		fb.vec = append(fb.vec, c.ext)
	}
	fb.vec = append(fb.vec, fb.head[from:])
	fb.size = binfmt.HeaderSize + payload + binfmt.TrailerSize
	return nil
}

// release drops the references to spliced strings (so a pooled buffer pins
// nobody's ciphertext) and returns fb to the pool.
func (fb *frameBuf) release() {
	clear(fb.cuts)
	clear(fb.vec)
	fb.rest = nil
	frameBufs.Put(fb)
}

// appendBody is the encode half of the per-type format.
func (fb *frameBuf) appendBody(m *message) error {
	if m.typ&respBit != 0 && m.status != statusOK {
		fb.head = append(fb.head, m.errMsg...)
		return nil
	}
	switch m.typ {
	case msgPing, msgVersion, msgProfileIDs,
		msgPing | respBit, msgInstallIndex | respBit, msgInstallDynIndex | respBit, msgPutProfiles | respBit,
		msgDeleteProfile | respBit, msgStoreBuckets | respBit, msgStoreImage | respBit, msgSetVersion | respBit:
	case msgInstallIndex, msgInstallDynIndex:
		// One encoded index, to the end of the payload.
		if len(m.blobs) != 1 {
			return fmt.Errorf("%w: %v carries %d encodings", ErrBadPayload, m.typ, len(m.blobs))
		}
		fb.bytes(m.blobs[0])
	case msgSecRecBatch:
		return fb.trapdoorList(m.trapdoors)
	case msgSecRecBatch | respBit:
		// Per-query candidate counts, then every id, every ciphertext
		// length and every ciphertext, each run flat across the batch.
		if len(m.batchIDs) != len(m.batchBlobs) {
			return fmt.Errorf("%w: %d id lists but %d profile lists", ErrBadPayload, len(m.batchIDs), len(m.batchBlobs))
		}
		fb.u32(uint32(len(m.batchIDs)))
		for q, ids := range m.batchIDs {
			if len(ids) != len(m.batchBlobs[q]) {
				return fmt.Errorf("%w: query %d has %d ids but %d profiles", ErrBadPayload, q, len(ids), len(m.batchBlobs[q]))
			}
			fb.u32(uint32(len(ids)))
		}
		for _, ids := range m.batchIDs {
			for _, id := range ids {
				fb.u64(id)
			}
		}
		for _, cts := range m.batchBlobs {
			for _, ct := range cts {
				fb.u32(uint32(len(ct)))
			}
		}
		for _, cts := range m.batchBlobs {
			for _, ct := range cts {
				fb.bytes(ct)
			}
		}
	case msgFetchProfiles, msgProfileIDs | respBit:
		fb.idList(m.ids)
	case msgFetchProfiles | respBit, msgFetchImages | respBit:
		fb.blobList(m.blobs)
	case msgPutProfiles:
		if len(m.ids) != len(m.blobs) {
			return fmt.Errorf("%w: %d ids but %d profiles", ErrBadPayload, len(m.ids), len(m.blobs))
		}
		fb.idList(m.ids)
		fb.blobList(m.blobs)
	case msgDeleteProfile, msgFetchImages:
		fb.u64(m.user)
	case msgFetchBuckets:
		fb.refList(m.refs)
	case msgFetchBuckets | respBit:
		fb.bucketList(m.buckets)
	case msgStoreBuckets:
		fb.u64(m.version)
		fb.refList(m.refs)
		fb.bucketList(m.buckets)
	case msgStoreImage:
		// The user, then one blob to the end of the payload.
		if len(m.blobs) != 1 {
			return fmt.Errorf("%w: %v carries %d blobs", ErrBadPayload, m.typ, len(m.blobs))
		}
		fb.u64(m.user)
		fb.bytes(m.blobs[0])
	case msgVersion | respBit, msgSetVersion:
		fb.u64(m.version)
	default:
		return fmt.Errorf("%w: cannot encode %v", ErrBadPayload, m.typ)
	}
	return nil
}

// grow returns s with length n, reusing its capacity when it suffices.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func idList(c *binfmt.Reader, dst []uint64) []uint64 {
	n := c.Count(8)
	raw := c.Take(8 * n)
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = le.Uint64(raw[8*i:])
	}
	return dst
}

func blobList(c *binfmt.Reader, dst [][]byte) [][]byte {
	n := c.Count(4)
	lens := c.Take(4 * n)
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = c.Take(int(le.Uint32(lens[4*i:])))
	}
	return dst
}

func refList(c *binfmt.Reader, dst []core.BucketRef) []core.BucketRef {
	n := c.Count(12)
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = core.BucketRef{Table: int(int32(c.U32())), Pos: c.U64()}
	}
	return dst
}

func bucketList(c *binfmt.Reader, dst []core.DynBucket) []core.DynBucket {
	n := c.Count(8)
	lens := c.Take(8 * n)
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = core.DynBucket{
			Masked: c.Take(int(le.Uint32(lens[8*i:]))),
			EncR:   c.Take(int(le.Uint32(lens[8*i+4:]))),
		}
	}
	return dst
}

// trapdoorList decodes into m's trapdoor backing store. The appends may
// move a backing array mid-batch; windows cut earlier keep the old one
// alive and stay valid.
func trapdoorList(c *binfmt.Reader, m *message) {
	nq := c.Count(8)
	m.tdStore, m.trapdoors = grow(m.tdStore, nq), grow(m.trapdoors, nq)
	m.tables, m.entries, m.masks = m.tables[:0], m.entries[:0], m.masks[:0]
	for q := range m.tdStore {
		nt, ns := int(c.U32()), int(c.U32())
		counts := c.Take(4 * nt)
		t := &m.tdStore[q]
		*t = core.Trapdoor{}
		m.trapdoors[q] = t
		t0 := len(m.tables)
		for j := 0; j < nt && !c.Bad(); j++ {
			ne := int(le.Uint32(counts[4*j:]))
			raw := c.Take(ne * (8 + core.BucketSize))
			e0 := len(m.entries)
			for ; len(raw) > 0; raw = raw[8+core.BucketSize:] {
				m.entries = append(m.entries, core.Entry{Pos: le.Uint64(raw), Mask: raw[8 : 8+core.BucketSize : 8+core.BucketSize]})
			}
			m.tables = append(m.tables, m.entries[e0:len(m.entries):len(m.entries)])
		}
		if len(m.tables) > t0 {
			t.Tables = m.tables[t0:len(m.tables):len(m.tables)]
		}
		raw := c.Take(ns * core.BucketSize)
		s0 := len(m.masks)
		for ; len(raw) > 0; raw = raw[core.BucketSize:] {
			m.masks = append(m.masks, raw[:core.BucketSize:core.BucketSize])
		}
		if len(m.masks) > s0 {
			t.Stash = m.masks[s0:len(m.masks):len(m.masks)]
		}
	}
}

// decode parses one frame's payload into m. An error is ErrBadPayload and
// concerns this frame alone; m.id is valid whenever the payload holds its
// fixed prefix, which frameReader.next guarantees.
func decode(typ msgType, payload []byte, m *message) error {
	c := binfmt.NewReader(payload)
	m.typ, m.id = typ, c.U64()
	m.budget, m.status, m.errMsg = 0, statusOK, ""
	if typ&respBit == 0 {
		m.budget = time.Duration(c.U64())
		if m.budget < 0 {
			return fmt.Errorf("%w: %v: negative deadline budget", ErrBadPayload, typ)
		}
	} else if m.status = c.U8(); m.status != statusOK {
		m.errMsg = string(c.Rest())
		return nil
	}
	if !decodeBody(&c, m) {
		return fmt.Errorf("%w: unknown %v", ErrBadPayload, typ)
	}
	if c.Bad() {
		return fmt.Errorf("%w: %v body ends early or declares more than it holds", ErrBadPayload, typ)
	}
	if c.Len() != 0 {
		return fmt.Errorf("%w: %v body has %d trailing bytes", ErrBadPayload, typ, c.Len())
	}
	return nil
}

// decodeBody is the decode half of the per-type format; it reports
// whether it knows m.typ.
func decodeBody(c *binfmt.Reader, m *message) bool {
	switch m.typ {
	case msgPing, msgVersion, msgProfileIDs,
		msgPing | respBit, msgInstallIndex | respBit, msgInstallDynIndex | respBit, msgPutProfiles | respBit,
		msgDeleteProfile | respBit, msgStoreBuckets | respBit, msgStoreImage | respBit, msgSetVersion | respBit:
	case msgInstallIndex, msgInstallDynIndex:
		m.blobs = append(m.blobs[:0], c.Rest())
	case msgSecRecBatch:
		trapdoorList(c, m)
	case msgSecRecBatch | respBit:
		nq := c.Count(4)
		counts := c.Take(4 * nq)
		sum := uint64(0)
		for q := 0; q < nq; q++ {
			sum += uint64(le.Uint32(counts[4*q:]))
		}
		total := c.Within(sum, 12)
		if c.Bad() {
			return true
		}
		m.ids, m.blobs = grow(m.ids, total), grow(m.blobs, total)
		m.batchIDs, m.batchBlobs = grow(m.batchIDs, nq), grow(m.batchBlobs, nq)
		rawIDs, lens := c.Take(8*total), c.Take(4*total)
		for i := range m.ids {
			m.ids[i] = le.Uint64(rawIDs[8*i:])
			m.blobs[i] = c.Take(int(le.Uint32(lens[4*i:])))
		}
		from := 0
		for q := range m.batchIDs {
			to := from + int(le.Uint32(counts[4*q:]))
			m.batchIDs[q], m.batchBlobs[q] = m.ids[from:to:to], m.blobs[from:to:to]
			from = to
		}
	case msgFetchProfiles, msgProfileIDs | respBit:
		m.ids = idList(c, m.ids)
	case msgFetchProfiles | respBit, msgFetchImages | respBit:
		m.blobs = blobList(c, m.blobs)
	case msgPutProfiles:
		m.ids = idList(c, m.ids)
		m.blobs = blobList(c, m.blobs)
		if len(m.ids) != len(m.blobs) {
			c.Fail()
		}
	case msgDeleteProfile, msgFetchImages:
		m.user = c.U64()
	case msgFetchBuckets:
		m.refs = refList(c, m.refs)
	case msgFetchBuckets | respBit:
		m.buckets = bucketList(c, m.buckets)
	case msgStoreBuckets:
		m.version = c.U64()
		m.refs = refList(c, m.refs)
		m.buckets = bucketList(c, m.buckets)
	case msgStoreImage:
		m.user = c.U64()
		m.blobs = append(m.blobs[:0], c.Rest())
	case msgVersion | respBit, msgSetVersion:
		m.version = c.U64()
	default:
		return false
	}
	return true
}

// frameReader is the receive side of one connection: it delimits and
// verifies frames and counts the wire bytes of those it delivered.
type frameReader struct {
	r *bufio.Reader
	n int64 // wire bytes of the frames delivered so far
	// trust is the largest frame body this stream has delivered intact. A
	// declared length up to it is allocated at once; see fill.
	trust int
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBufSize)}
}

// next reads one frame and returns its type and payload. The payload
// occupies buf's backing array when that is large enough and a fresh
// buffer otherwise; either way it belongs to the caller. io.EOF means the
// stream ended between frames. Any other error — the typed framing errors
// included — means the stream is no longer delimited and the connection
// must be dropped.
func (fr *frameReader) next(buf []byte) (msgType, []byte, error) {
	// Peek, not ReadFull into a local: the header is parsed where the
	// read-ahead already holds it.
	hdr, err := fr.r.Peek(binfmt.HeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = fmt.Errorf("%w: stream ended %d bytes into a frame header", ErrTruncated, len(hdr))
		}
		return 0, nil, err
	}
	t, size, err := binfmt.ParseHeader(hdr)
	if err != nil {
		return 0, nil, err
	}
	typ := msgType(t)
	if size > maxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes declared", ErrFrameTooLarge, size)
	}
	// The fixed prefix is part of the frame's structure: without a request
	// id there is nobody to fail, so a shorter payload is a framing error.
	if prefix := prefixSize(typ); size < prefix {
		return 0, nil, fmt.Errorf("%w: %d-byte payload cannot hold the %d-byte prefix", ErrBadPayload, size, prefix)
	}
	sum := binfmt.Sum(0, hdr)
	fr.r.Discard(binfmt.HeaderSize) // cannot fail: Peek just returned these bytes
	body, err := fr.fill(buf, size+binfmt.TrailerSize)
	if err != nil {
		return 0, nil, err
	}
	payload := body[:size]
	if binfmt.Sum(sum, payload) != le.Uint32(body[size:]) {
		return 0, nil, ErrChecksum
	}
	fr.trust = max(fr.trust, len(body))
	fr.n += int64(binfmt.HeaderSize + len(body))
	return typ, payload, nil
}

func prefixSize(typ msgType) int {
	if typ&respBit != 0 {
		return respPrefix
	}
	return reqPrefix
}

// fill reads need bytes into buf's capacity, or into a new buffer when
// that is too small. A declared length is never allocated on the header's
// word alone: beyond what this stream has already proven it sends (trust,
// at least growStep) the buffer grows only as the bytes arrive, doubling,
// so a lying length costs at most growStep and a frame that does arrive
// at most twice its size. In the steady state every frame is one exact
// allocation and its bytes land in it straight from the socket.
func (fr *frameReader) fill(buf []byte, need int) ([]byte, error) {
	size := min(need, max(cap(buf), fr.trust, growStep))
	buf = grow(buf, size)
	for got := 0; ; {
		if n, err := io.ReadFull(fr.r, buf[got:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("%w: stream ended %d bytes into a %d-byte frame body", ErrTruncated, got+n, need)
			}
			return nil, err
		}
		if got = len(buf); got == need {
			return buf, nil
		}
		bigger := make([]byte, min(need, 2*got))
		copy(bigger, buf)
		buf = bigger
	}
}

// frameWriter is the send side of one connection. Frames are encoded
// outside its lock and written under it, one vectored write per frame.
type frameWriter struct {
	mu   sync.Mutex
	w    io.Writer
	sent int64 // wire bytes of the frames written whole; guarded by mu
}

// buffersWriter is implemented by connection wrappers that must see a
// frame as one call (faultnet.Conn draws one fault decision per frame).
type buffersWriter interface {
	WriteBuffers(*net.Buffers) (int64, error)
}

// write sends an encoded frame as one vectored write: a *net.TCPConn takes
// the gather list as a single writev, a wrapper implementing buffersWriter
// forwards it as one, and anything else gets the buffers in order. Any
// error leaves the stream torn mid-frame, so the connection is finished.
func (fw *frameWriter) write(fb *frameBuf) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	var err error
	fb.rest = fb.vec
	if bw, ok := fw.w.(buffersWriter); ok {
		_, err = bw.WriteBuffers(&fb.rest)
	} else {
		_, err = fb.rest.WriteTo(fw.w)
	}
	if err == nil {
		fw.sent += int64(fb.size)
	}
	return err
}

// total returns the wire bytes written so far. It takes the write lock, so
// a frame another goroutine is in the middle of sending is counted.
func (fw *frameWriter) total() int64 {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.sent
}
