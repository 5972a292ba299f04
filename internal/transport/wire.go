package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"pisd/internal/core"
)

// The wire codec: one versioned little-endian frame for every RPC, in
// both directions (DESIGN.md "Wire format" has the per-type byte tables):
//
//	magic(4) | version(1) | type(1) | payload_len(4) | payload | crc32c(4)
//
//	request payload:  id(8) | budget_ns(8) | body
//	response payload: id(8) | status(1)    | body
//
// The checksum covers header and payload. Every id, position, count and
// length is fixed-width, so a frame's size is a function of the public
// parameters (l, d, stash, batch size, candidate count, ciphertext length)
// and never of the values carried. A response's type is its request's
// with respBit set, so either direction decodes without context.
//
// Two failure classes. A frame whose magic, version, length or checksum is
// wrong means the byte stream itself cannot be trusted: the reader returns
// the typed cause and the connection is dropped. A frame that is intact
// but whose body does not parse (or a message that cannot be encoded)
// fails only the request it belongs to, with ErrBadPayload, and the
// connection carries on.

// Typed codec errors; match with errors.Is. The first five are framing
// failures and arrive wrapped in a ConnError.
var (
	// ErrBadMagic reports bytes that are not a transport frame.
	ErrBadMagic = errors.New("transport: bad frame magic")
	// ErrVersion reports a peer speaking another codec version.
	ErrVersion = errors.New("transport: unsupported wire version")
	// ErrFrameTooLarge reports a frame over maxFrame, declared by a peer or
	// about to be produced by an encode.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrTruncated reports a stream that ended inside a frame.
	ErrTruncated = errors.New("transport: truncated frame")
	// ErrChecksum reports a frame whose checksum does not match its bytes.
	ErrChecksum = errors.New("transport: frame checksum mismatch")
	// ErrBadPayload reports an intact frame with an invalid body, or a
	// message the codec cannot represent.
	ErrBadPayload = errors.New("transport: invalid frame payload")
	// ErrExpired reports a request the server dropped unexecuted because
	// the caller's deadline budget ran out while it waited for a worker.
	// It is a deadline expiry: errors.Is(err, context.DeadlineExceeded).
	ErrExpired = fmt.Errorf("transport: request expired in the server queue: %w", context.DeadlineExceeded)
)

const (
	frameMagic  = 0x57534950 // "PISW" as it appears on the wire
	wireVersion = 1

	headerSize  = 4 + 1 + 1 + 4
	trailerSize = 4
	reqPrefix   = 8 + 8
	respPrefix  = 8 + 1

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

var (
	le       = binary.LittleEndian
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

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
	fb.head, fb.cuts, fb.vec = fb.head[:0], fb.cuts[:0], fb.vec[:0]
	fb.u32(frameMagic)
	fb.u8(wireVersion)
	fb.u8(byte(m.typ))
	fb.u32(0) // payload length, patched below
	fb.u64(m.id)
	if m.typ&respBit == 0 {
		fb.u64(uint64(m.budget))
	} else {
		fb.u8(m.status)
	}
	if err := fb.appendBody(m); err != nil {
		return err
	}
	payload := len(fb.head) - headerSize
	for _, c := range fb.cuts {
		payload += len(c.ext)
	}
	if payload > maxFrame {
		return fmt.Errorf("%w: %v of %d bytes", ErrFrameTooLarge, m.typ, payload)
	}
	le.PutUint32(fb.head[6:], uint32(payload))

	// The checksum walks the frame in wire order: head up to each cut, the
	// spliced string, and so on. The gather list is assembled only once the
	// trailer is in head, so no entry points into a buffer append has left.
	sum, from := uint32(0), 0
	for _, c := range fb.cuts {
		sum = crc32.Update(sum, crcTable, fb.head[from:c.at])
		sum = crc32.Update(sum, crcTable, c.ext)
		from = c.at
	}
	sum = crc32.Update(sum, crcTable, fb.head[from:])
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
	fb.size = headerSize + payload + trailerSize
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

// cursor reads a payload front to back. A read past the end sets bad and
// yields zeros, so a decoder checks once at the end instead of after every
// field.
type cursor struct {
	b   []byte
	bad bool
}

// take returns the next n bytes as a sub-slice whose capacity ends where
// it does, so an append by whoever holds it cannot reach its neighbour.
func (c *cursor) take(n int) []byte {
	if n > len(c.b) {
		c.bad, c.b = true, nil
		return nil
	}
	if n == 0 {
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u8() byte {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

// count reads an element count and checks that so many elements of at
// least unit bytes each can still follow, so a lying count never sizes an
// allocation.
func (c *cursor) count(unit int) int {
	n := uint64(c.u32())
	if n*uint64(unit) > uint64(len(c.b)) {
		c.bad, c.b = true, nil
		return 0
	}
	return int(n)
}

// grow returns s with length n, reusing its capacity when it suffices.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (c *cursor) idList(dst []uint64) []uint64 {
	n := c.count(8)
	raw := c.take(8 * n)
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = le.Uint64(raw[8*i:])
	}
	return dst
}

func (c *cursor) blobList(dst [][]byte) [][]byte {
	n := c.count(4)
	lens := c.take(4 * n)
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = c.take(int(le.Uint32(lens[4*i:])))
	}
	return dst
}

func (c *cursor) refList(dst []core.BucketRef) []core.BucketRef {
	n := c.count(12)
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = core.BucketRef{Table: int(int32(c.u32())), Pos: c.u64()}
	}
	return dst
}

func (c *cursor) bucketList(dst []core.DynBucket) []core.DynBucket {
	n := c.count(8)
	lens := c.take(8 * n)
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = core.DynBucket{
			Masked: c.take(int(le.Uint32(lens[8*i:]))),
			EncR:   c.take(int(le.Uint32(lens[8*i+4:]))),
		}
	}
	return dst
}

// trapdoorList decodes into m's trapdoor backing store. The appends may
// move a backing array mid-batch; windows cut earlier keep the old one
// alive and stay valid.
func (c *cursor) trapdoorList(m *message) {
	nq := c.count(8)
	m.tdStore, m.trapdoors = grow(m.tdStore, nq), grow(m.trapdoors, nq)
	m.tables, m.entries, m.masks = m.tables[:0], m.entries[:0], m.masks[:0]
	for q := range m.tdStore {
		nt, ns := int(c.u32()), int(c.u32())
		counts := c.take(4 * nt)
		t := &m.tdStore[q]
		*t = core.Trapdoor{}
		m.trapdoors[q] = t
		t0 := len(m.tables)
		for j := 0; j < nt && !c.bad; j++ {
			ne := int(le.Uint32(counts[4*j:]))
			raw := c.take(ne * (8 + core.BucketSize))
			e0 := len(m.entries)
			for ; len(raw) > 0; raw = raw[8+core.BucketSize:] {
				m.entries = append(m.entries, core.Entry{Pos: le.Uint64(raw), Mask: raw[8 : 8+core.BucketSize : 8+core.BucketSize]})
			}
			m.tables = append(m.tables, m.entries[e0:len(m.entries):len(m.entries)])
		}
		if len(m.tables) > t0 {
			t.Tables = m.tables[t0:len(m.tables):len(m.tables)]
		}
		raw := c.take(ns * core.BucketSize)
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
	c := cursor{b: payload}
	m.typ, m.id = typ, c.u64()
	m.budget, m.status, m.errMsg = 0, statusOK, ""
	if typ&respBit == 0 {
		m.budget = time.Duration(c.u64())
		if m.budget < 0 {
			return fmt.Errorf("%w: %v: negative deadline budget", ErrBadPayload, typ)
		}
	} else if m.status = c.u8(); m.status != statusOK {
		m.errMsg = string(c.b)
		return nil
	}
	if !c.decodeBody(m) {
		return fmt.Errorf("%w: unknown %v", ErrBadPayload, typ)
	}
	if c.bad {
		return fmt.Errorf("%w: %v body ends early or declares more than it holds", ErrBadPayload, typ)
	}
	if len(c.b) != 0 {
		return fmt.Errorf("%w: %v body has %d trailing bytes", ErrBadPayload, typ, len(c.b))
	}
	return nil
}

// decodeBody is the decode half of the per-type format; it reports
// whether it knows m.typ.
func (c *cursor) decodeBody(m *message) bool {
	switch m.typ {
	case msgPing, msgVersion, msgProfileIDs,
		msgPing | respBit, msgInstallIndex | respBit, msgInstallDynIndex | respBit, msgPutProfiles | respBit,
		msgDeleteProfile | respBit, msgStoreBuckets | respBit, msgStoreImage | respBit, msgSetVersion | respBit:
	case msgInstallIndex, msgInstallDynIndex:
		m.blobs = append(m.blobs[:0], c.take(len(c.b)))
	case msgSecRecBatch:
		c.trapdoorList(m)
	case msgSecRecBatch | respBit:
		nq := c.count(4)
		counts := c.take(4 * nq)
		total := uint64(0)
		for q := 0; q < nq; q++ {
			total += uint64(le.Uint32(counts[4*q:]))
		}
		if total*12 > uint64(len(c.b)) {
			c.bad = true
			return true
		}
		m.ids, m.blobs = grow(m.ids, int(total)), grow(m.blobs, int(total))
		m.batchIDs, m.batchBlobs = grow(m.batchIDs, nq), grow(m.batchBlobs, nq)
		rawIDs, lens := c.take(8*int(total)), c.take(4*int(total))
		for i := range m.ids {
			m.ids[i] = le.Uint64(rawIDs[8*i:])
			m.blobs[i] = c.take(int(le.Uint32(lens[4*i:])))
		}
		from := 0
		for q := range m.batchIDs {
			to := from + int(le.Uint32(counts[4*q:]))
			m.batchIDs[q], m.batchBlobs[q] = m.ids[from:to:to], m.blobs[from:to:to]
			from = to
		}
	case msgFetchProfiles, msgProfileIDs | respBit:
		m.ids = c.idList(m.ids)
	case msgFetchProfiles | respBit, msgFetchImages | respBit:
		m.blobs = c.blobList(m.blobs)
	case msgPutProfiles:
		m.ids = c.idList(m.ids)
		m.blobs = c.blobList(m.blobs)
		if len(m.ids) != len(m.blobs) {
			c.bad = true
		}
	case msgDeleteProfile, msgFetchImages:
		m.user = c.u64()
	case msgFetchBuckets:
		m.refs = c.refList(m.refs)
	case msgFetchBuckets | respBit:
		m.buckets = c.bucketList(m.buckets)
	case msgStoreBuckets:
		m.version = c.u64()
		m.refs = c.refList(m.refs)
		m.buckets = c.bucketList(m.buckets)
	case msgStoreImage:
		m.user = c.u64()
		m.blobs = append(m.blobs[:0], c.take(len(c.b)))
	case msgVersion | respBit, msgSetVersion:
		m.version = c.u64()
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
	hdr, err := fr.r.Peek(headerSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = fmt.Errorf("%w: stream ended %d bytes into a frame header", ErrTruncated, len(hdr))
		}
		return 0, nil, err
	}
	if le.Uint32(hdr) != frameMagic {
		return 0, nil, ErrBadMagic
	}
	if hdr[4] != wireVersion {
		return 0, nil, fmt.Errorf("%w: peer speaks %d, this side %d", ErrVersion, hdr[4], wireVersion)
	}
	typ, size := msgType(hdr[5]), int(le.Uint32(hdr[6:]))
	if size > maxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes declared", ErrFrameTooLarge, size)
	}
	// The fixed prefix is part of the frame's structure: without a request
	// id there is nobody to fail, so a shorter payload is a framing error.
	if prefix := prefixSize(typ); size < prefix {
		return 0, nil, fmt.Errorf("%w: %d-byte payload cannot hold the %d-byte prefix", ErrBadPayload, size, prefix)
	}
	sum := crc32.Update(0, crcTable, hdr)
	fr.r.Discard(headerSize) // cannot fail: Peek just returned these bytes
	body, err := fr.fill(buf, size+trailerSize)
	if err != nil {
		return 0, nil, err
	}
	payload := body[:size]
	if crc32.Update(sum, crcTable, payload) != le.Uint32(body[size:]) {
		return 0, nil, ErrChecksum
	}
	fr.trust = max(fr.trust, len(body))
	fr.n += int64(headerSize + len(body))
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
