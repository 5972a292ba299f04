package pisd_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pisd/internal/bow"
	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/segstore"
	"pisd/internal/subs"
)

// goldenDir holds byte layouts recorded once and never regenerated: a
// cloud state directory (sealed static index, dynamic index, one-entry
// profile and image stores), a sealed segment file and a vocabulary. Each
// must decode and re-encode to exactly the bytes on disk, so a codec
// change that moves any at-rest byte, or stops reading an existing state
// directory or segment set, fails here. Beside them lies a subscription
// registration frame in the retired PSUB layout (big-endian, IEEE CRC),
// which must now be refused.
var goldenDir = filepath.Join("testdata", "golden")

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s re-encodes to %d bytes that differ from the %d recorded", what, len(got), len(want))
	}
}

func readGolden(t *testing.T, parts ...string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(append([]string{goldenDir}, parts...)...))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenAtRestFormats(t *testing.T) {
	t.Run("state", func(t *testing.T) {
		srv := cloud.New()
		if err := srv.LoadFrom(filepath.Join(goldenDir, "state")); err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		if err := srv.SaveTo(out); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"index.bin", "dynindex.bin", "profiles.bin", "images.bin"} {
			got, err := os.ReadFile(filepath.Join(out, name))
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, name, got, readGolden(t, "state", name))
		}
	})

	t.Run("index", func(t *testing.T) {
		blob, err := segstore.ReadSealedFile(filepath.Join(goldenDir, "state", "index.bin"), segstore.KindIndex)
		if err != nil {
			t.Fatal(err)
		}
		var x core.Index
		if err := x.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		re, err := x.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "static index", re, blob)
	})

	t.Run("dynindex", func(t *testing.T) {
		blob, err := segstore.ReadSealedFile(filepath.Join(goldenDir, "state", "dynindex.bin"), segstore.KindDynIndex)
		if err != nil {
			t.Fatal(err)
		}
		var x core.DynIndex
		if err := x.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		re, err := x.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "dynamic index", re, blob)
	})

	t.Run("vocabulary", func(t *testing.T) {
		blob := readGolden(t, "vocab.bin")
		var v bow.Vocabulary
		if err := v.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		re, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "vocabulary", re, blob)
	})

	t.Run("segment", func(t *testing.T) {
		const name = "seg-0000000000000001-0000000000000004-g2.seg"
		path := filepath.Join(goldenDir, name)
		sg, err := segstore.OpenSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		info := sg.Info()
		sg.Close()
		payload, err := segstore.ReadSealedFile(path, segstore.KindSegment)
		if err != nil {
			t.Fatal(err)
		}
		// The segment header (generation, reserved, lo, hi) precedes the
		// index encoding inside the sealed payload.
		var x core.Index
		if err := x.UnmarshalBinary(payload[4+4+8+8:]); err != nil {
			t.Fatal(err)
		}
		if info.Items != x.Shape().N {
			t.Fatalf("segment shape holds %d items, its index %d", info.Items, x.Shape().N)
		}
		out, err := segstore.WriteSegmentFile(t.TempDir(), info.Generation, info.Lo, info.Hi, &x)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(out) != name {
			t.Fatalf("segment re-written as %s, want %s", filepath.Base(out), name)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "segment file", got, readGolden(t, name))
	})
}

func TestRetiredSubscriptionFrameRefused(t *testing.T) {
	if _, _, err := subs.Decode(readGolden(t, "psub_registration.bin")); !errors.Is(err, subs.ErrBadMagic) {
		t.Fatalf("PSUB registration frame decoded with %v, want ErrBadMagic", err)
	}
}
