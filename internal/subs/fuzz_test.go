package subs

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSubscriptionPayload fuzzes the subscription wire codec. The seed
// corpus is a real session — a registration and the notifications a live
// manager emitted under churn — plus truncated and bit-flipped variants
// of each frame. The invariants:
//
//   - Decode never panics and never reads past the declared frame.
//   - Every rejection is one of the typed codec errors.
//   - Every accepted frame re-encodes to the exact bytes it was decoded
//     from (the codec is canonical), and the decode consumed the whole
//     re-encoding.
func FuzzSubscriptionPayload(f *testing.F) {
	for _, frame := range sessionFrames(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		flipped := append([]byte(nil), frame...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
		// Two frames back to back: the decoder must stop at the boundary.
		f.Add(append(append([]byte(nil), frame...), frame...))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
				!errors.Is(err, ErrBadVersion) &&
				!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrBadPayload) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		var re []byte
		switch {
		case fr.Registration != nil:
			re, err = EncodeRegistration(*fr.Registration)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
		case fr.Notification != nil:
			re = EncodeNotification(*fr.Notification)
		default:
			t.Fatal("decode returned an empty frame without error")
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("decoded frame is not canonical:\n got %x\nwant %x", re, data[:n])
		}
	})
}
