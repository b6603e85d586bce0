package core

import (
	"bytes"
	"io"
	"slices"
	"testing"
)

func TestStreamMatchesBatch(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	det, err := NewDetector(ps)
	if err != nil {
		t.Fatal(err)
	}
	doc := getMiniCorpus(t).Test["es"][0].Text
	want, wantMatch := classify(det.Classifier(), doc), det.Detect(doc)
	counts := make([]int, len(det.Languages()))

	// Feed the same document in chunks of varying sizes.
	for _, chunk := range []int{1, 3, 7, 64, len(doc)} {
		s := det.NewStream()
		for off := 0; off < len(doc); off += chunk {
			end := off + chunk
			if end > len(doc) {
				end = len(doc)
			}
			n, err := s.Write(doc[off:end])
			if err != nil || n != end-off {
				t.Fatalf("Write = %d, %v", n, err)
			}
		}
		got := s.MatchCounts(counts)
		if got.NGrams != want.NGrams {
			t.Fatalf("chunk %d: NGrams %d != batch %d", chunk, got.NGrams, want.NGrams)
		}
		if !slices.Equal(counts, want.Counts) {
			t.Fatalf("chunk %d: counts %v != batch %v", chunk, counts, want.Counts)
		}
		if got != wantMatch {
			t.Fatalf("chunk %d: match %+v != batch %+v", chunk, got, wantMatch)
		}
	}
}

func TestStreamImplementsWriter(t *testing.T) {
	ps := trainMini(t, Config{TopT: 500})
	det, _ := NewDetector(ps, WithBackend(BackendDirect))
	s := det.NewStream()
	var _ io.Writer = s
	var _ io.StringWriter = s
	doc := getMiniCorpus(t).Test["en"][0].Text
	if _, err := io.Copy(s, bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if m := s.Match(); m.Lang != "en" {
		t.Errorf("io.Copy path classified as %q", m.Lang)
	}
}

func TestStreamIntermediateResults(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	det, _ := NewDetector(ps)
	doc := getMiniCorpus(t).Test["fi"][0].Text
	s := det.NewStream()
	mid, full := make([]int, len(det.Languages())), make([]int, len(det.Languages()))
	s.Write(doc[:len(doc)/2])
	midM := s.MatchCounts(mid)
	s.Write(doc[len(doc)/2:])
	fullM := s.MatchCounts(full)
	if midM.NGrams >= fullM.NGrams {
		t.Error("intermediate result saw as many n-grams as the full document")
	}
	if midM.NGrams == 0 {
		t.Error("no n-grams at midpoint")
	}
	// Counts only grow.
	for i := range mid {
		if full[i] < mid[i] {
			t.Error("counts decreased as the stream grew")
		}
	}
}

func TestStreamReset(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	det, _ := NewDetector(ps)
	docA := getMiniCorpus(t).Test["en"][0].Text
	docB := getMiniCorpus(t).Test["pt"][0].Text
	s := det.NewStream()
	s.Write(docA)
	s.Reset()
	s.Write(docB)
	if got, want := s.Match(), det.Detect(docB); got != want {
		t.Errorf("Reset leaked state from the previous document: %+v != %+v", got, want)
	}
}

func TestStreamEmpty(t *testing.T) {
	ps := trainMini(t, Config{TopT: 500})
	det, _ := NewDetector(ps, WithBackend(BackendDirect))
	if m := det.NewStream().Match(); !m.Unknown || m.NGrams != 0 || m.Lang != "" {
		t.Errorf("empty stream match = %+v", m)
	}
}

func TestStreamSubsample(t *testing.T) {
	cfg := Config{TopT: 500, Subsample: 2}
	ps := trainMini(t, cfg)
	det, _ := NewDetector(ps, WithBackend(BackendDirect))
	doc := getMiniCorpus(t).Test["en"][0].Text
	s := det.NewStream()
	s.Write(doc)
	got := s.Match()
	want := classify(det.Classifier(), doc)
	if got.NGrams != want.NGrams {
		t.Errorf("subsampled stream NGrams %d != batch %d", got.NGrams, want.NGrams)
	}
}

func BenchmarkStreamWrite(b *testing.B) {
	ps := trainMini(b, Config{TopT: 1000})
	det, err := NewDetector(ps)
	if err != nil {
		b.Fatal(err)
	}
	doc := getMiniCorpus(b).Test["en"][0].Text
	s := det.NewStream()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.Write(doc)
	}
}
