// Command pisd-client simulates one user client Usr: it renders the
// user's preferred topic images, runs the two client-side tasks of the
// paper (GenProf feature extraction + BoW profile, ComputeLSH metadata),
// reports their cost, and optionally uploads a policy-encrypted image to a
// cloud server.
//
//	pisd-client -topics flower,dog -images 5
//	pisd-client -topics beach -cloud 127.0.0.1:7001 -upload
//
// The client also speaks the standing-query wire codec: -subscribe-out
// FILE encodes a registration frame for the computed profile (handed to a
// front end started with -subscribe-frames), and -notifications FILE
// decodes a notification-frame stream the front end wrote with
// -notify-out, rejecting truncated or corrupted frames with the codec's
// typed errors.
//
//	pisd-client -topics beach -k 5 -subscribe-out sub.bin
//	pisd-client -notifications notify.bin
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pisd"
	"pisd/internal/sharing"
	"pisd/internal/surf"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pisd-client:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topicsFlag = flag.String("topics", "flower,dog", "comma-separated preferred topics")
		images     = flag.Int("images", 5, "preferred images to generate")
		vocabWords = flag.Int("vocab", 128, "visual-word vocabulary size")
		userID     = flag.Uint64("id", 1, "user identifier")
		cloudAddr  = flag.String("cloud", "", "cloud server address (empty: offline)")
		upload     = flag.Bool("upload", false, "upload an encrypted image to the cloud")
		seed       = flag.Int64("seed", 1, "image seed")

		subOut    = flag.String("subscribe-out", "", "encode a standing-query registration frame for the computed profile into this file")
		subK      = flag.Int("k", 5, "standing-query top-k for -subscribe-out")
		notifFile = flag.String("notifications", "", "decode a notification-frame stream (pisd-frontend -notify-out) and exit")
	)
	flag.Parse()

	if *notifFile != "" {
		return decodeNotifications(*notifFile)
	}

	topics, err := parseTopics(*topicsFlag)
	if err != nil {
		return err
	}

	// The vocabulary and LSH parameters are normally pre-shared by the
	// front end; this standalone client trains a local stand-in.
	fmt.Println("preparing shared vocabulary ...")
	var sample []pisd.Descriptor
	for _, t := range pisd.AllTopics() {
		for i := 0; i < 4; i++ {
			im, err := pisd.RenderTopicImage(t, *seed+int64(i), 96, 96)
			if err != nil {
				return err
			}
			descs, err := surf.Extract(im, surf.DefaultOptions())
			if err != nil {
				return err
			}
			sample = append(sample, descs...)
		}
	}
	vocab, err := pisd.TrainVocabulary(sample, *vocabWords)
	if err != nil {
		return err
	}
	lshParams := pisd.DefaultFrontendConfig(vocab.Size()).LSH

	user, err := pisd.NewUser(*userID, vocab, lshParams)
	if err != nil {
		return err
	}
	imgs := make([]*pisd.Image, *images)
	for i := range imgs {
		im, err := pisd.RenderTopicImage(topics[i%len(topics)], *seed+int64(100+i), 128, 128)
		if err != nil {
			return err
		}
		imgs[i] = im
	}

	profStart := time.Now()
	profile, err := user.GenProf(imgs)
	if err != nil {
		return err
	}
	profDur := time.Since(profStart)
	metaStart := time.Now()
	meta := user.ComputeLSH(profile)
	metaDur := time.Since(metaStart)

	nonZero := 0
	for _, v := range profile {
		if v > 0 {
			nonZero++
		}
	}
	fmt.Printf("user %d profile: %d dims, %d active visual words\n", *userID, len(profile), nonZero)
	fmt.Printf("GenProf (%d images): %s   ComputeLSH (%d tables): %s\n",
		len(imgs), profDur.Round(time.Millisecond), len(meta), metaDur.Round(time.Microsecond))

	if *subOut != "" {
		if err := writeRegistration(*subOut, *userID, *subK, profile); err != nil {
			return err
		}
	}

	if *cloudAddr == "" {
		return nil
	}
	client, err := pisd.DialCloud(*cloudAddr)
	if err != nil {
		return err
	}
	defer client.Close()
	if *upload {
		authority, err := pisd.NewSharingAuthority()
		if err != nil {
			return err
		}
		ct, err := authority.Encrypt(sharing.AllOf("friend"), encodeImage(imgs[0]))
		if err != nil {
			return err
		}
		if err := client.StoreImage(*userID, ct.Payload); err != nil {
			return err
		}
		fmt.Printf("uploaded one encrypted image (%d B) to %s\n", len(ct.Payload), *cloudAddr)
	}
	return client.Ping(context.Background())
}

func parseTopics(s string) ([]pisd.Topic, error) {
	byName := make(map[string]pisd.Topic)
	for _, t := range pisd.AllTopics() {
		byName[t.String()] = t
	}
	var out []pisd.Topic
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		t, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown topic %q (known: %v)", name, pisd.AllTopics())
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no topics given")
	}
	return out, nil
}

// writeRegistration encodes one standing-query registration frame for the
// profile and self-verifies it by decoding the written bytes back.
func writeRegistration(path string, subID uint64, k int, profile []float64) error {
	frame, err := pisd.EncodeSubscriptionRegistration(pisd.SubscriptionRegistration{
		SubID: subID, K: k, ExcludeID: subID, Profile: profile,
	})
	if err != nil {
		return fmt.Errorf("encode registration: %w", err)
	}
	decoded, consumed, err := pisd.DecodeSubscriptionFrame(frame)
	if err != nil || consumed != len(frame) || decoded.Registration == nil {
		return fmt.Errorf("registration frame failed self-verification: %v", err)
	}
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		return err
	}
	fmt.Printf("encoded standing-query registration (user %d, top-%d, %d B) to %s\n",
		subID, k, len(frame), path)
	return nil
}

// decodeNotifications decodes a notification-frame stream, printing each
// standing-result change; a damaged stream is reported with the codec's
// typed error (truncation, checksum mismatch, bad payload, ...).
func decodeNotifications(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n := 0
	for len(data) > 0 {
		frame, consumed, err := pisd.DecodeSubscriptionFrame(data)
		if err != nil {
			switch {
			case errors.Is(err, pisd.ErrSubscriptionTruncated):
				return fmt.Errorf("frame %d: stream truncated mid-frame: %w", n, err)
			case errors.Is(err, pisd.ErrSubscriptionChecksum):
				return fmt.Errorf("frame %d: corrupted in transit: %w", n, err)
			default:
				return fmt.Errorf("frame %d: %w", n, err)
			}
		}
		data = data[consumed:]
		nt := frame.Notification
		if nt == nil {
			return fmt.Errorf("frame %d is not a notification", n)
		}
		n++
		kind := "entered"
		if nt.Promoted {
			kind = "promoted"
		}
		evict := ""
		if nt.EvictedID != 0 {
			evict = fmt.Sprintf(" evicting user %d", nt.EvictedID)
		}
		fmt.Printf("notify[seq %d] sub %d: user %d %s at distance %.4f%s\n",
			nt.Seq, nt.SubID, nt.ID, kind, nt.Distance, evict)
	}
	fmt.Printf("decoded %d notification frame(s) from %s\n", n, path)
	return nil
}

// encodeImage serializes the grayscale image to bytes for upload.
func encodeImage(im *pisd.Image) []byte {
	out := make([]byte, 0, len(im.Pix))
	for _, v := range im.Pix {
		out = append(out, byte(v*255))
	}
	return out
}
