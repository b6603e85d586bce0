package core

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"bloomlang/internal/corpus"
)

var updateSpanFixture = flag.Bool("update-span-fixture", false, "rewrite testdata/span_fixture.json from the current segmentation code")

const spanFixturePath = "testdata/span_fixture.json"

// spanFixtureCase is one (backend, geometry, policy) cell of the span
// fixture with the spans every fixture document segments into.
type spanFixtureCase struct {
	Backend   string        `json:"backend"`
	Segment   SegmentConfig `json:"segment"`
	MinMargin float64       `json:"min_margin"`
	Spans     [][]Span      `json:"spans"`
}

// spanFixtureDocs is the fixture's document set: mixed documents whose
// segments include untrained sibling languages (sk, sv), so windows
// flip, tie and fall under a margin floor, plus two prefixes shorter
// than one default window, which take the whole-document decision.
func spanFixtureDocs(t *testing.T) [][]byte {
	t.Helper()
	mixed, err := corpus.GenerateMixed(corpus.MixedConfig{
		Languages:       []string{"cs", "da", "en", "fi", "sk", "sv"},
		Docs:            8,
		SegmentsPerDoc:  4,
		WordsPerSegment: 30,
		Seed:            23,
	})
	if err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	for _, d := range mixed {
		docs = append(docs, d.Text)
	}
	return append(docs, mixed[0].Text[:40], mixed[1].Text[:200])
}

// TestDetectSpansFixture holds segmentation output to the committed
// fixture bit for bit — Start, End, Lang, Unknown, and the exact float64
// bits of Score and Margin — on every built-in backend, at the default
// geometry (integer window decisions), at a smoothed geometry (the
// float path) and under a margin floor that turns windows Unknown. The
// fixture was written before the window decision moved to integer
// counts; rewrite it with -update-span-fixture only for an intended
// change of segmentation output.
func TestDetectSpansFixture(t *testing.T) {
	docs := spanFixtureDocs(t)
	cells := []struct {
		seg       SegmentConfig
		minMargin float64
	}{
		{SegmentConfig{}.WithDefaults(), 0},
		{SegmentConfig{Window: 30, Stride: 10, Hysteresis: 5, Smoothing: 0.9}, 0},
		{SegmentConfig{}.WithDefaults(), 0.1},
	}
	segDetector(t, BackendDirect) // trains segProfiles
	var got []spanFixtureCase
	for _, backend := range []Backend{BackendBloom, BackendDirect, BackendClassic, BackendBlocked} {
		for _, c := range cells {
			det, err := NewDetector(segProfiles, WithBackend(backend), WithMinMargin(c.minMargin))
			if err != nil {
				t.Fatal(err)
			}
			fc := spanFixtureCase{Backend: backend.String(), Segment: c.seg, MinMargin: c.minMargin}
			for _, doc := range docs {
				spans, err := det.DetectSpans(doc, c.seg)
				if err != nil {
					t.Fatal(err)
				}
				fc.Spans = append(fc.Spans, spans)
			}
			got = append(got, fc)
		}
	}
	if *updateSpanFixture {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(spanFixturePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(spanFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	var want []spanFixtureCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", spanFixturePath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d cases, the test builds %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Backend != g.Backend || w.Segment != g.Segment || w.MinMargin != g.MinMargin {
			t.Fatalf("case %d is %s %+v margin %v, fixture has %s %+v margin %v", i, g.Backend, g.Segment, g.MinMargin, w.Backend, w.Segment, w.MinMargin)
		}
		if len(w.Spans) != len(g.Spans) {
			t.Fatalf("%s %+v: %d documents, fixture has %d", g.Backend, g.Segment, len(g.Spans), len(w.Spans))
		}
		for d := range w.Spans {
			if !spansBitEqual(w.Spans[d], g.Spans[d]) {
				t.Errorf("%s %+v margin %v, doc %d:\n got  %+v\n want %+v", g.Backend, g.Segment, g.MinMargin, d, g.Spans[d], w.Spans[d])
			}
		}
	}
}

// spansBitEqual compares span lists field by field, the floats by their
// bits.
func spansBitEqual(a, b []Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Start != y.Start || x.End != y.End || x.Lang != y.Lang || x.Unknown != y.Unknown ||
			math.Float64bits(x.Score) != math.Float64bits(y.Score) ||
			math.Float64bits(x.Margin) != math.Float64bits(y.Margin) {
			return false
		}
	}
	return true
}
