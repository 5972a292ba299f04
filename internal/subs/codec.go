package subs

import (
	"encoding/binary"
	"fmt"
	"math"

	"pisd/internal/binfmt"
)

// Wire codec for the subscription session: the registration payload a
// client hands the frontend and the notification frames the frontend
// streams back. Each is one binfmt frame (DESIGN.md §20) — the transport's
// magic, version, little-endian layout and CRC-32C, with type bytes of its
// own — so a truncated or bit-flipped frame is rejected with a typed
// error instead of being half-decoded. Registration payloads carry the
// subscriber's plaintext profile: they are for the client ↔ frontend
// channel only (the same trust relationship as profile upload in the
// paper) and must never be sent to the cloud tier.

// Typed decode errors, binfmt's; match with errors.Is. A frame of an
// unknown type is ErrBadPayload, as on the transport.
var (
	ErrTruncated  = binfmt.ErrTruncated
	ErrBadMagic   = binfmt.ErrBadMagic
	ErrBadVersion = binfmt.ErrVersion
	ErrChecksum   = binfmt.ErrChecksum
	ErrBadPayload = binfmt.ErrBadPayload
)

const (
	// Frame types, outside the transport's 1–14 and their responses.
	frameRegistration = 0x40
	frameNotification = 0x41

	// maxProfileDim bounds a registration's profile dimension.
	maxProfileDim = 1 << 20

	registrationFixed = 8 + 4 + 8 + 4 // subID, k, excludeID, dim
	notificationSize  = 8 + 8 + 8 + 8 + 8 + 1
)

// Registration is the client → frontend standing-query request.
type Registration struct {
	SubID     uint64
	K         int
	ExcludeID uint64
	Profile   []float64
}

// Frame is one decoded wire frame: exactly one field is non-nil.
type Frame struct {
	Registration *Registration
	Notification *Notification
}

// AppendRegistration appends r's encoded frame to dst.
func AppendRegistration(dst []byte, r Registration) ([]byte, error) {
	if r.K <= 0 || uint64(r.K) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: k %d out of range", ErrBadPayload, r.K)
	}
	if len(r.Profile) == 0 || len(r.Profile) > maxProfileDim {
		return nil, fmt.Errorf("%w: profile dimension %d out of range", ErrBadPayload, len(r.Profile))
	}
	start := len(dst)
	dst = binfmt.AppendHeader(dst, frameRegistration, registrationFixed+8*len(r.Profile))
	dst = le.AppendUint64(dst, r.SubID)
	dst = le.AppendUint32(dst, uint32(r.K))
	dst = le.AppendUint64(dst, r.ExcludeID)
	dst = le.AppendUint32(dst, uint32(len(r.Profile)))
	for _, v := range r.Profile {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	return binfmt.AppendSum(dst, start), nil
}

// AppendNotification appends n's encoded frame to dst.
func AppendNotification(dst []byte, n Notification) []byte {
	start := len(dst)
	dst = binfmt.AppendHeader(dst, frameNotification, notificationSize)
	dst = le.AppendUint64(dst, n.Seq)
	dst = le.AppendUint64(dst, n.SubID)
	dst = le.AppendUint64(dst, n.ID)
	dst = le.AppendUint64(dst, n.EvictedID)
	dst = le.AppendUint64(dst, math.Float64bits(n.Distance))
	promoted := byte(0)
	if n.Promoted {
		promoted = 1
	}
	return binfmt.AppendSum(append(dst, promoted), start)
}

// EncodeRegistration encodes one registration frame.
func EncodeRegistration(r Registration) ([]byte, error) {
	return AppendRegistration(nil, r)
}

// EncodeNotification encodes one notification frame.
func EncodeNotification(n Notification) []byte {
	return AppendNotification(nil, n)
}

// Decode decodes the first frame in data, returning it and the number of
// bytes it consumed, so a byte stream decodes by repeated calls. Errors
// are typed: ErrTruncated, ErrBadMagic, ErrBadVersion, ErrChecksum,
// ErrBadPayload.
func Decode(data []byte) (Frame, int, error) {
	kind, body, n, err := binfmt.Split(data)
	if err != nil {
		return Frame{}, 0, err
	}
	var fr Frame
	switch kind {
	case frameRegistration:
		fr.Registration, err = decodeRegistration(body)
	case frameNotification:
		fr.Notification, err = decodeNotification(body)
	default:
		err = fmt.Errorf("%w: unknown frame type %#x", ErrBadPayload, kind)
	}
	if err != nil {
		return Frame{}, 0, err
	}
	return fr, n, nil
}

func decodeRegistration(body []byte) (*Registration, error) {
	c := binfmt.NewReader(body)
	r := &Registration{SubID: c.U64(), K: int(c.U32()), ExcludeID: c.U64()}
	dim := c.Count(8)
	r.Profile = make([]float64, dim)
	for i := range r.Profile {
		r.Profile[i] = math.Float64frombits(c.U64())
	}
	if c.Bad() || c.Len() != 0 || dim == 0 || dim > maxProfileDim {
		return nil, fmt.Errorf("%w: registration of %d body bytes", ErrBadPayload, len(body))
	}
	if r.SubID == 0 {
		return nil, fmt.Errorf("%w: zero subscription id", ErrBadPayload)
	}
	if r.K <= 0 {
		return nil, fmt.Errorf("%w: k %d", ErrBadPayload, r.K)
	}
	for i, v := range r.Profile {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite profile coordinate %d", ErrBadPayload, i)
		}
	}
	return r, nil
}

func decodeNotification(body []byte) (*Notification, error) {
	c := binfmt.NewReader(body)
	n := &Notification{Seq: c.U64(), SubID: c.U64(), ID: c.U64(), EvictedID: c.U64(), Distance: math.Float64frombits(c.U64())}
	promoted := c.U8()
	n.Promoted = promoted == 1
	if c.Bad() || c.Len() != 0 {
		return nil, fmt.Errorf("%w: notification body %d bytes, want %d", ErrBadPayload, len(body), notificationSize)
	}
	if promoted > 1 {
		return nil, fmt.Errorf("%w: promoted flag %d", ErrBadPayload, promoted)
	}
	if n.SubID == 0 || n.ID == 0 {
		return nil, fmt.Errorf("%w: zero identifier in notification", ErrBadPayload)
	}
	if math.IsNaN(n.Distance) || math.IsInf(n.Distance, 0) || n.Distance < 0 {
		return nil, fmt.Errorf("%w: invalid notification distance", ErrBadPayload)
	}
	return n, nil
}

var le = binary.LittleEndian
