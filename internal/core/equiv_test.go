package core

// Equivalence guarantees the serving layer leans on: every backend —
// the fused blocked kernel included — produces the identical decision
// on every input path (one-shot bytes, reader, incremental stream,
// batch), a document fed to a Stream in any chunking — including
// splits landing mid-n-gram — produces the identical counts and Match
// as one-shot detection, and DetectBatch's parallel fan-out returns
// results in input order at any worker count.

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/bloom"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
)

// equivBackends is the backend matrix the equivalence suite runs over:
// the four built-ins plus the custom Kernel backend_test.go registers.
var equivBackends = []Backend{BackendBloom, BackendDirect, BackendClassic, BackendBlocked}

// TestDetectEquivalenceAcrossPaths pins Detect ≡ ClassifyGrams ≡ Rank
// over every built-in backend and every input path: the one-shot byte
// path, the io.Reader path, the incremental stream path, and the
// batch path must all return the identical Match, Rank's head must
// agree with Detect, and Match must be derivable from the counter-level
// ClassifyGrams result.
func TestDetectEquivalenceAcrossPaths(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	corp := getMiniCorpus(t)
	for _, backend := range equivBackends {
		t.Run(backend.String(), func(t *testing.T) {
			det, err := NewDetector(ps, WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			clf := det.Classifier()
			var docs []corpus.Document
			for _, lang := range []string{"en", "es", "fi", "pt"} {
				docs = append(docs, corp.Test[lang][0], corp.Test[lang][1])
			}
			docs = append(docs, corpus.Document{}) // empty document -> Unknown on every path
			batch := det.DetectBatch(docs)
			for i, doc := range docs {
				want := det.Detect(doc.Text)

				if got, err := det.DetectReader(bytes.NewReader(doc.Text)); err != nil || got != want {
					t.Errorf("doc %d: reader path = %+v (%v), detect = %+v", i, got, err, want)
				}

				st := det.NewStream()
				for start := 0; start < len(doc.Text); start += 7 {
					end := start + 7
					if end > len(doc.Text) {
						end = len(doc.Text)
					}
					st.Write(doc.Text[start:end])
				}
				if got := st.Match(); got != want {
					t.Errorf("doc %d: stream path = %+v, detect = %+v", i, got, want)
				}

				if batch[i] != want {
					t.Errorf("doc %d: batch path = %+v, detect = %+v", i, batch[i], want)
				}

				ranked := det.Rank(doc.Text, 0)
				if len(ranked) != len(det.Languages()) {
					t.Fatalf("doc %d: Rank returned %d entries for %d languages", i, len(ranked), len(det.Languages()))
				}
				if want.NGrams > 0 {
					if ranked[0].Count != want.Count || ranked[0].Score != want.Score {
						t.Errorf("doc %d: rank head %+v disagrees with detect %+v", i, ranked[0], want)
					}
					if !want.Unknown && ranked[0].Lang != want.Lang {
						t.Errorf("doc %d: rank head language %q, detect %q", i, ranked[0].Lang, want.Lang)
					}
				}

				r := classify(clf, doc.Text)
				if got := det.match(r.Counts, r.NGrams); got != want {
					t.Errorf("doc %d: classify-derived match = %+v, detect = %+v", i, got, want)
				}
			}
		})
	}
}

// TestBlockedNeverFalseNegativeVsDirect is the deterministic half of
// the differential guarantee (the fuzz half lives in
// FuzzBlockedNoFalseNegativesVsDirect): on real corpus documents,
// every n-gram the exact direct table accepts must also be accepted
// by the blocked filter, so the blocked per-language counts dominate
// the exact counts.
func TestBlockedNeverFalseNegativeVsDirect(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	direct, err := New(ps, BackendDirect)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := New(ps, BackendBlocked)
	if err != nil {
		t.Fatal(err)
	}
	corp := getMiniCorpus(t)
	for _, lang := range []string{"en", "es", "fi", "pt"} {
		for _, doc := range corp.Test[lang][:5] {
			gs := direct.ExtractGrams(nil, doc.Text)
			for _, g := range gs {
				for i := range direct.langs {
					if direct.kernel.Test(i, g) && !blocked.kernel.Test(i, g) {
						t.Fatalf("blocked false negative: lang %s gram %#x", direct.langs[i], g)
					}
				}
			}
			dr, br := classify(direct, doc.Text), classify(blocked, doc.Text)
			for i := range dr.Counts {
				if br.Counts[i] < dr.Counts[i] {
					t.Errorf("%s: blocked count %d below exact count %d for %s",
						lang, br.Counts[i], dr.Counts[i], direct.langs[i])
				}
			}
		}
	}
}

// splitPoints returns deterministic pseudo-random cut offsets for a
// document of length n.
func splitPoints(rng *rand.Rand, n, cuts int) []int {
	pts := make([]int, 0, cuts)
	for i := 0; i < cuts; i++ {
		pts = append(pts, rng.Intn(n))
	}
	pts = append(pts, 0, n)
	// Insertion sort keeps the helper dependency-free.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j] < pts[j-1]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	return pts
}

func TestStreamArbitraryChunkSplitsMatchOneShot(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	for _, backend := range equivBackends {
		det, err := NewDetector(ps, WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		counts := make([]int, len(det.Languages()))
		for _, lang := range []string{"en", "es", "fi", "pt"} {
			doc := getMiniCorpus(t).Test[lang][0].Text
			want, wantMatch := classify(det.Classifier(), doc), det.Detect(doc)
			s := det.NewStream()
			for trial := 0; trial < 20; trial++ {
				pts := splitPoints(rng, len(doc), 1+rng.Intn(12))
				s.Reset()
				for i := 1; i < len(pts); i++ {
					s.Write(doc[pts[i-1]:pts[i]])
				}
				if got := s.MatchCounts(counts); got != wantMatch || !slices.Equal(counts, want.Counts) {
					t.Fatalf("%s/%s: split %v: stream %+v %v != one-shot %+v %v",
						backend, lang, pts, got, counts, wantMatch, want.Counts)
				}
			}
		}
	}
}

// TestStreamMidNGramBoundarySplits walks a two-chunk split across every
// offset in the n-gram window region, so each possible mid-n-gram cut
// is hit explicitly.
func TestStreamMidNGramBoundarySplits(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	for _, backend := range []Backend{BackendBloom, BackendBlocked} {
		det, err := NewDetector(ps, WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		doc := getMiniCorpus(t).Test["es"][0].Text
		if len(doc) > 64 {
			doc = doc[:64]
		}
		want, wantMatch := classify(det.Classifier(), doc), det.Detect(doc)
		counts := make([]int, len(det.Languages()))
		s := det.NewStream()
		for cut := 0; cut <= len(doc); cut++ {
			s.Reset()
			s.Write(doc[:cut])
			s.Write(doc[cut:])
			if got := s.MatchCounts(counts); got != wantMatch || !slices.Equal(counts, want.Counts) {
				t.Fatalf("%s: cut at %d: stream %+v %v != one-shot %+v %v", backend, cut, got, counts, wantMatch, want.Counts)
			}
		}
	}
}

func TestClassifyAllPreservesInputOrder(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	// Interleave languages so a reordering cannot produce the same
	// language sequence.
	var docs []corpus.Document
	var wantLangs []string
	corp := getMiniCorpus(t)
	for i := 0; i < 5; i++ {
		for _, lang := range []string{"fi", "en", "pt", "es"} {
			docs = append(docs, corp.Test[lang][i])
			wantLangs = append(wantLangs, lang)
		}
	}
	for _, workers := range []int{1, 3, len(docs) * 4} {
		det, err := NewDetector(ps, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		L := len(det.Languages())
		counts := make([]int, len(docs)*L)
		got := det.DetectBatchCounts(docs, counts)
		if len(got) != len(docs) {
			t.Fatalf("workers=%d: %d results for %d docs", workers, len(got), len(docs))
		}
		for i, d := range docs {
			want := classify(det.Classifier(), d.Text)
			if got[i] != det.Detect(d.Text) || !slices.Equal(counts[i*L:(i+1)*L], want.Counts) {
				t.Errorf("workers=%d: result %d differs from sequential", workers, i)
			}
			if got[i].Lang != wantLangs[i] {
				t.Errorf("workers=%d: position %d classified %q, want %q", workers, i, got[i].Lang, wantLangs[i])
			}
		}
	}
}

// referenceCounts is the test-only reference scorer the chunked
// counting loop is held to: translate the whole document, slide the
// n-gram window over it with ngram.Pack, keep every subsample-th
// n-gram, and ask the kernel's per-language Test about each one.
func referenceCounts(c *Classifier, doc []byte) (counts []int, ngrams int) {
	codes := alphabet.TranslateAll(doc)
	n, sub := c.cfg.N, c.cfg.Subsample
	counts = make([]int, len(c.langs))
	for i := 0; i+n <= len(codes); i += sub {
		g := ngram.Pack(codes[i : i+n])
		for l := range counts {
			if c.kernel.Test(l, g) {
				counts[l]++
			}
		}
		ngrams++
	}
	return counts, ngrams
}

// withSubsample returns a copy of c that tests every sub-th n-gram —
// the classifier New would build with Config.Subsample = sub, without
// rebuilding the membership structures.
func withSubsample(t *testing.T, c *Classifier, sub int) *Classifier {
	t.Helper()
	cs := *c
	cs.cfg.Subsample = sub
	if err := cs.extractor.SetSubsample(sub); err != nil {
		t.Fatal(err)
	}
	return &cs
}

// chunkBoundaryLengths returns the document lengths around every edge
// the counting loop has: empty, shorter than one n-gram, exactly one,
// and both sides of the first and second chunk of MaskChunk n-grams
// (MaskChunk·sub bytes under subsampling).
func chunkBoundaryLengths(n, sub int) []int {
	ls := []int{0, 1, n - 1, n}
	for k := 1; k <= 2; k++ {
		for _, step := range []int{bloom.MaskChunk, bloom.MaskChunk * sub} {
			ls = append(ls, step*k-1, step*k, step*k+1, step*k+n-1)
		}
	}
	return ls
}

// TestChunkBoundaryEquivalence holds every counting entry point to the
// whole-document reference at each chunk edge, on every backend, n-gram
// length and subsample: DetectCounts, DetectBatchCounts, Rank,
// ClassifyGrams, and Stream and SpanStream fed the document in random
// []byte and string pieces. Counts and Match must be identical.
func TestChunkBoundaryEquivalence(t *testing.T) {
	corp := getMiniCorpus(t)
	var text []byte
	for _, lang := range []string{"en", "fi", "es", "pt"} {
		for _, d := range corp.Test[lang][:2] {
			text = append(text, d.Text...)
		}
	}
	text = append(text, "\x00\xc3\xa9\xff ÀÉÎÕÜ àéîõü 0123!?"...)
	if need := 2*bloom.MaskChunk*7 + ngram.MaxN; len(text) < need {
		t.Fatalf("fixture text has %d bytes, want at least %d", len(text), need)
	}
	rng := rand.New(rand.NewSource(8))
	for n := 1; n <= ngram.MaxN; n++ {
		ps := trainMini(t, Config{N: n, TopT: 300})
		for _, backend := range equivBackends {
			if backend == BackendDirect && n == ngram.MaxN && raceEnabled {
				// The exact table spans the 2^30 6-gram space (192 MiB);
				// race shadow memory multiplies that past what a test
				// should take.
				continue
			}
			base, err := New(ps, backend)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range []int{1, 2, 3, 7} {
				c := withSubsample(t, base, sub)
				det := newDetector(c, gatherOptions([]DetectorOption{WithWorkers(2)}))
				L := len(c.langs)
				lengths := chunkBoundaryLengths(n, sub)
				docs := make([]corpus.Document, len(lengths))
				for i, l := range lengths {
					docs[i].Text = text[:l]
				}
				batchCounts := make([]int, len(docs)*L)
				batch := det.DetectBatchCounts(docs, batchCounts)
				st := det.NewStream()
				sp, err := det.NewSpanStream(SegmentConfig{Window: 8, Stride: 4})
				if err != nil {
					t.Fatal(err)
				}
				counts := make([]int, L)
				for i, doc := range docs {
					want, ngrams := referenceCounts(c, doc.Text)
					wantMatch := det.match(want, ngrams)
					check := func(path string, m Match, got []int) {
						t.Helper()
						if !slices.Equal(got, want) || m != wantMatch {
							t.Fatalf("%v n=%d sub=%d len=%d %s: %+v %v, want %+v %v",
								backend, n, sub, len(doc.Text), path, m, got, wantMatch, want)
						}
					}
					check("DetectCounts", det.DetectCounts(doc.Text, counts), counts)
					check("DetectBatchCounts", batch[i], batchCounts[i*L:(i+1)*L])
					r := classify(c, doc.Text)
					check("ClassifyGrams", det.match(r.Counts, r.NGrams), r.Counts)
					if rk := det.Rank(doc.Text, 1); ngrams > 0 && rk[0].Count != wantMatch.Count {
						t.Fatalf("%v n=%d sub=%d len=%d: Rank head %+v, want count %d",
							backend, n, sub, len(doc.Text), rk[0], wantMatch.Count)
					}

					pts := []int{0, 0}
					if len(doc.Text) > 0 {
						pts = splitPoints(rng, len(doc.Text), 1+rng.Intn(6))
					}
					st.Reset()
					sp.Reset()
					for j := 1; j < len(pts); j++ {
						piece := doc.Text[pts[j-1]:pts[j]]
						if j%2 == 0 {
							st.Write(piece)
							sp.Write(piece)
						} else {
							st.WriteString(string(piece))
							sp.WriteString(string(piece))
						}
					}
					check("Stream", st.MatchCounts(counts), counts)
					check("SpanStream", sp.MatchCounts(counts), counts)
					spans, err := det.DetectSpans(doc.Text, SegmentConfig{Window: 8, Stride: 4})
					if err != nil {
						t.Fatal(err)
					}
					if got := sp.Finish(); !slices.Equal(got, spans) {
						t.Fatalf("%v n=%d sub=%d len=%d: split SpanStream spans %+v, one-shot %+v",
							backend, n, sub, len(doc.Text), got, spans)
					}
				}
			}
		}
	}
}
