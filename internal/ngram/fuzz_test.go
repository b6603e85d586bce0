package ngram

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"bloomlang/internal/alphabet"
)

// FuzzReadProfile hardens the deserializer against malformed input: it
// must never panic, and anything it accepts must round-trip.
func FuzzReadProfile(f *testing.F) {
	// Seed with a valid serialized profile and some mutations.
	p := &Profile{Language: "es", N: 4, Grams: []uint32{1, 2, 0xFFFFF}}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NGPF"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadProfile(bytes.NewReader(data))
		if err != nil {
			return // rejected, fine
		}
		// Accepted: must survive a round trip unchanged.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted profile failed to serialize: %v", err)
		}
		back, err := ReadProfile(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Language != got.Language || back.N != got.N || len(back.Grams) != len(got.Grams) {
			t.Fatal("round trip changed the profile")
		}
	})
}

// FuzzExtractBytes checks the extractor on arbitrary byte streams: the
// n-gram count invariant must hold for any input.
func FuzzExtractBytes(f *testing.F) {
	f.Add([]byte("hello world"), 4)
	f.Add([]byte{}, 1)
	f.Add([]byte{0xFF, 0x00, 0xC3, 0x7F}, 6)
	f.Fuzz(func(t *testing.T, text []byte, n int) {
		gs, err := ExtractBytes(text, n)
		if err != nil {
			if n >= 1 && n <= MaxN {
				t.Fatalf("valid n=%d rejected: %v", n, err)
			}
			return
		}
		if len(gs) != Count(len(text), n) {
			t.Fatalf("extracted %d n-grams from %d bytes at n=%d, want %d",
				len(gs), len(text), n, Count(len(text), n))
		}
		mask := uint64(1)<<Bits(n) - 1
		for _, g := range gs {
			if uint64(g) > mask {
				t.Fatalf("gram %#x exceeds %d-bit packing", g, Bits(n))
			}
		}
	})
}

// FuzzFeedBytesVsFeed pins the folded byte path to the two-stage one:
// FeedText over []byte and string pieces, cut at arbitrary points,
// must emit exactly what Feed emits over the whole translated
// document, at every n and subsample, and leave the extractor in the
// same state.
func FuzzFeedBytesVsFeed(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(4), uint8(1), int64(1))
	f.Add([]byte{}, uint8(1), uint8(3), int64(2))
	f.Add([]byte{0xFF, 0x00, 0xC3, 0xA9, 0x7F, 'a', 'B'}, uint8(6), uint8(7), int64(3))
	f.Fuzz(func(t *testing.T, doc []byte, n, sub uint8, seed int64) {
		proto, err := NewExtractor(1 + int(n)%MaxN)
		if err != nil {
			t.Fatal(err)
		}
		if err := proto.SetSubsample(1 + int(sub)%8); err != nil {
			t.Fatal(err)
		}
		want := *proto
		wantGrams := want.Feed(nil, alphabet.TranslateAll(doc))

		got := *proto
		var gotGrams []uint32
		rng := rand.New(rand.NewSource(seed))
		for rest := doc; len(rest) > 0; {
			k := rng.Intn(len(rest) + 1)
			if rng.Intn(2) == 0 {
				gotGrams = FeedText(&got, gotGrams, rest[:k])
			} else {
				gotGrams = FeedText(&got, gotGrams, string(rest[:k]))
			}
			rest = rest[k:]
		}
		if !slices.Equal(gotGrams, wantGrams) {
			t.Fatalf("n=%d sub=%d: FeedText %x, Feed %x", proto.n, proto.subsample, gotGrams, wantGrams)
		}
		if got != want {
			t.Fatalf("n=%d sub=%d: extractor state %+v after FeedText, %+v after Feed", proto.n, proto.subsample, got, want)
		}
	})
}
