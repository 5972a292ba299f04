package subs

import (
	"bytes"
	"errors"
	"testing"

	"pisd/internal/binfmt"
)

func sessionFrames(t testing.TB) [][]byte {
	// A real subscription session: register a standing query against a
	// live manager, drive churn through it, and encode the registration
	// plus every notification the session emitted.
	var notes []Notification
	m := NewManager(func(n Notification) { notes = append(notes, n) })
	reg := Registration{
		SubID:     7,
		K:         2,
		ExcludeID: 7,
		Profile:   []float64{0.125, -0.5, 0.75, 0.0625},
	}
	if _, err := m.Register(reg.SubID, reg.K, reg.Profile, reg.ExcludeID,
		refsFor(10, 11), map[uint64]float64{3: 1.5}); err != nil {
		t.Fatal(err)
	}
	m.OnInsert(21, []float64{0.25, -0.5, 0.75, 0}, refsFor(11))
	m.OnInsert(22, []float64{1, 1, 1, 1}, refsFor(10))
	m.OnDelete(3)
	if len(notes) < 2 {
		t.Fatalf("session emitted %d notifications, want >= 2", len(notes))
	}
	frames := make([][]byte, 0, 1+len(notes))
	enc, err := EncodeRegistration(reg)
	if err != nil {
		t.Fatal(err)
	}
	frames = append(frames, enc)
	for _, n := range notes {
		frames = append(frames, EncodeNotification(n))
	}
	return frames
}

func TestCodecRoundTrip(t *testing.T) {
	frames := sessionFrames(t)
	var stream []byte
	for _, f := range frames {
		stream = append(stream, f...)
	}
	// The concatenated session decodes frame by frame, each re-encoding
	// byte-identically.
	off := 0
	for i, want := range frames {
		fr, n, err := Decode(stream[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(want) {
			t.Fatalf("frame %d consumed %d bytes, want %d", i, n, len(want))
		}
		var re []byte
		switch {
		case fr.Registration != nil:
			re, err = EncodeRegistration(*fr.Registration)
			if err != nil {
				t.Fatalf("frame %d re-encode: %v", i, err)
			}
		case fr.Notification != nil:
			re = EncodeNotification(*fr.Notification)
		default:
			t.Fatalf("frame %d decoded to nothing", i)
		}
		if !bytes.Equal(re, want) {
			t.Fatalf("frame %d did not round-trip", i)
		}
		off += n
	}
	if off != len(stream) {
		t.Fatalf("stream left %d undecoded bytes", len(stream)-off)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for _, frame := range sessionFrames(t) {
		for cut := 0; cut < len(frame); cut++ {
			if _, _, err := Decode(frame[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut at %d/%d: err = %v, want ErrTruncated", cut, len(frame), err)
			}
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	for fi, frame := range sessionFrames(t) {
		for i := range frame {
			for bit := 0; bit < 8; bit++ {
				flipped := append([]byte(nil), frame...)
				flipped[i] ^= 1 << bit
				_, _, err := Decode(flipped)
				if err == nil {
					t.Fatalf("frame %d: flip byte %d bit %d accepted", fi, i, bit)
				}
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
					!errors.Is(err, ErrBadVersion) &&
					!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadPayload) {
					t.Fatalf("frame %d: flip byte %d bit %d: untyped error %v", fi, i, bit, err)
				}
			}
		}
	}
}

func TestDecodeRejectsBadPayloads(t *testing.T) {
	if _, err := EncodeRegistration(Registration{SubID: 1, K: 0, Profile: []float64{1}}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("zero k encoded: %v", err)
	}
	if _, err := EncodeRegistration(Registration{SubID: 1, K: 1}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("empty profile encoded: %v", err)
	}
	if _, _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("nil input: %v", err)
	}
	if _, _, err := Decode(bytes.Repeat([]byte{0}, 64)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("zero input: %v", err)
	}
}

// TestFramesAreBinfmtFrames pins the subscription session to the shared
// frame (DESIGN.md §20): the transport's magic, version and checksum, with
// type bytes of its own.
func TestFramesAreBinfmtFrames(t *testing.T) {
	frames := sessionFrames(t)
	for i, frame := range frames {
		typ, _, n, err := binfmt.Split(frame)
		want := byte(frameNotification)
		if i == 0 {
			want = frameRegistration
		}
		if err != nil || typ != want || n != len(frame) {
			t.Fatalf("frame %d: type %#x, %d of %d bytes, %v; want type %#x", i, typ, n, len(frame), err, want)
		}
	}
}
