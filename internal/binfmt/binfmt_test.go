package binfmt

import (
	"bytes"
	"errors"
	"testing"
)

func frame(typ byte, payload []byte) []byte {
	b := append(AppendHeader(nil, typ, len(payload)), payload...)
	return AppendSum(b, 0)
}

func TestSplit(t *testing.T) {
	one, two := frame(0x40, []byte("standing query")), frame(0x41, nil)
	stream := append(append([]byte(nil), one...), two...)
	typ, payload, n, err := Split(stream)
	if err != nil || typ != 0x40 || string(payload) != "standing query" || n != len(one) {
		t.Fatalf("first frame: type %#x, payload %q, %d bytes, %v", typ, payload, n, err)
	}
	if cap(payload) != len(payload) {
		t.Fatalf("payload capacity %d runs past its %d bytes", cap(payload), len(payload))
	}
	if typ, payload, n, err = Split(stream[n:]); err != nil || typ != 0x41 || len(payload) != 0 || n != len(two) {
		t.Fatalf("second frame: type %#x, payload %q, %d bytes, %v", typ, payload, n, err)
	}
	for cut := range len(one) {
		if _, _, _, err := Split(one[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d/%d: %v, want ErrTruncated", cut, len(one), err)
		}
	}
	bad := func(i int, b byte) []byte { f := bytes.Clone(one); f[i] ^= b; return f }
	for _, c := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"magic", bad(0, 1), ErrBadMagic},
		{"version", bad(4, 3), ErrVersion},
		{"payload bit", bad(HeaderSize+3, 0x10), ErrChecksum},
		{"trailer bit", bad(len(one)-1, 0x80), ErrChecksum},
		{"length", bad(6, 1), ErrTruncated},
	} {
		if _, _, _, err := Split(c.frame); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}

func TestWithinRefusesWrappingCounts(t *testing.T) {
	r := NewReader(make([]byte, 16))
	if n := r.Within(1<<61, 8); n != 0 || !r.Bad() {
		t.Fatalf("2^61 elements of 8 bytes (product wraps to 0) read as %d, bad %v", n, r.Bad())
	}
	r = NewReader(make([]byte, 16))
	if n := r.Within(2, 8); n != 2 || r.Bad() || r.Len() != 16 {
		t.Fatalf("2 elements of 8 bytes in 16: %d, bad %v, %d left", n, r.Bad(), r.Len())
	}
}

// FuzzReader drives a Reader with a script of reads over arbitrary bytes
// and checks every result against a model of the cursor: a read returns
// exactly the next bytes or, once any read has run past the end or a count
// was refused, zeros and nil for ever after (bad is sticky, Len is 0).
// Every returned slice is capacity-capped, so nothing past it is reachable.
func FuzzReader(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte{0x00, 0x09, 0x1a, 0x23, 0x2c, 0x35, 0x3e, 0x07})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3}, []byte{0x16, 0x1f})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{0x46})
	f.Add([]byte{}, []byte{0x00, 0x08, 0x01})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r := NewReader(data)
		off, bad := 0, false
		// next models a k-byte read.
		next := func(k int) []byte {
			if bad || k < 0 || k > len(data)-off {
				bad = true
				return nil
			}
			off += k
			return data[off-k : off]
		}
		for i, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0:
				got, want := r.Take(arg-2), next(arg-2)
				if !bytes.Equal(got, want) || cap(got) != len(got) {
					t.Fatalf("op %d: Take(%d) = %x (cap %d), want %x", i, arg-2, got, cap(got), want)
				}
			case 1:
				want := byte(0)
				if b := next(1); b != nil {
					want = b[0]
				}
				if got := r.U8(); got != want {
					t.Fatalf("op %d: U8 = %d, want %d", i, got, want)
				}
			case 2, 3, 4, 5:
				var got, want uint64
				switch op & 7 {
				case 2:
					got = uint64(r.U32())
					if b := next(4); b != nil {
						want = uint64(le.Uint32(b))
					}
				case 3:
					got = r.U64()
					if b := next(8); b != nil {
						want = le.Uint64(b)
					}
				case 4:
					got = uint64(r.U32BE())
					if b := next(4); b != nil {
						want = uint64(be.Uint32(b))
					}
				case 5:
					got = r.U64BE()
					if b := next(8); b != nil {
						want = be.Uint64(b)
					}
				}
				if got != want {
					t.Fatalf("op %d (%d): read %d, want %d", i, op&7, got, want)
				}
			case 6:
				unit, want := arg+1, 0
				if b := next(4); b != nil {
					if n := uint64(le.Uint32(b)); n*uint64(unit) <= uint64(len(data)-off) {
						want = int(n)
					} else {
						bad = true
					}
				}
				if got := r.Count(unit); got != want {
					t.Fatalf("op %d: Count(%d) = %d, want %d", i, unit, got, want)
				}
			case 7:
				want := next(len(data) - off)
				if got := r.Rest(); !bytes.Equal(got, want) || cap(got) != len(got) {
					t.Fatalf("op %d: Rest = %x, want %x", i, got, want)
				}
			}
			if r.Bad() != bad {
				t.Fatalf("op %d: Bad() = %v, want %v", i, r.Bad(), bad)
			}
			if left := len(data) - off; bad && r.Len() != 0 || !bad && r.Len() != left {
				t.Fatalf("op %d: Len() = %d with %d bytes unread, bad %v", i, r.Len(), left, bad)
			}
		}
	})
}
