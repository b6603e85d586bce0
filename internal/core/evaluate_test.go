package core

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

func miniDetector(t testing.TB, workers int) *Detector {
	t.Helper()
	det, err := NewDetector(trainMini(t, Config{TopT: 1000}), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestDetectorDefaults(t *testing.T) {
	d := miniDetector(t, 0)
	if d.Workers() <= 0 {
		t.Errorf("Workers = %d, want positive default", d.Workers())
	}
	if d.Classifier() == nil {
		t.Error("Classifier accessor nil")
	}
}

func TestClassifyAllMatchesSequential(t *testing.T) {
	d := miniDetector(t, 8)
	corp := getMiniCorpus(t)
	docs := corp.TestDocuments("")
	L := len(d.Languages())
	counts := make([]int, len(docs)*L)
	par := d.DetectBatchCounts(docs, counts)
	for i, doc := range docs {
		seq := classify(d.Classifier(), doc.Text)
		if par[i] != d.Detect(doc.Text) || par[i].NGrams != seq.NGrams {
			t.Fatalf("doc %d: parallel result differs from sequential", i)
		}
		if !slices.Equal(counts[i*L:(i+1)*L], seq.Counts) {
			t.Fatalf("doc %d: counts %v differ from sequential %v", i, counts[i*L:(i+1)*L], seq.Counts)
		}
	}
}

func TestClassifyAllEmpty(t *testing.T) {
	d := miniDetector(t, 4)
	if got := d.DetectBatch(nil); len(got) != 0 {
		t.Errorf("DetectBatch(nil) returned %d results", len(got))
	}
}

func TestClassifyAllMoreWorkersThanDocs(t *testing.T) {
	d := miniDetector(t, 64)
	corp := getMiniCorpus(t)
	docs := corp.Test["en"][:2]
	results := d.DetectBatch(docs)
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, m := range results {
		if m.Lang != "en" {
			t.Errorf("doc %d misclassified", i)
		}
	}
}

func TestMeasure(t *testing.T) {
	d := miniDetector(t, 0)
	corp := getMiniCorpus(t)
	docs := corp.TestDocuments("")
	rep := Measure(d, docs)
	if rep.Docs != len(docs) {
		t.Errorf("Docs = %d, want %d", rep.Docs, len(docs))
	}
	if rep.Bytes <= 0 {
		t.Error("Bytes not positive")
	}
	if rep.Elapsed <= 0 {
		t.Error("Elapsed not positive")
	}
	if rep.MBPerSec() <= 0 {
		t.Error("MBPerSec not positive")
	}
}

func TestThroughputReportMath(t *testing.T) {
	rep := ThroughputReport{Bytes: 10 << 20, Elapsed: 2 * time.Second}
	if got := rep.MBPerSec(); got < 4.99 || got > 5.01 {
		t.Errorf("MBPerSec = %v, want 5", got)
	}
	zero := ThroughputReport{Bytes: 100}
	if zero.MBPerSec() != 0 {
		t.Error("zero elapsed must give zero throughput")
	}
}

func TestEvaluate(t *testing.T) {
	d := miniDetector(t, 0)
	corp := getMiniCorpus(t)
	ev := Evaluate(d, corp)
	if ev.Docs == 0 {
		t.Fatal("no documents evaluated")
	}
	if len(ev.PerLanguage) != len(corp.Languages) {
		t.Fatalf("PerLanguage has %d entries, want %d", len(ev.PerLanguage), len(corp.Languages))
	}
	if ev.Average < 0.9 {
		t.Errorf("average accuracy %.3f below 0.9 on easy corpus", ev.Average)
	}
	if ev.Min > ev.Average || ev.Average > ev.Max {
		t.Errorf("Min %.3f / Average %.3f / Max %.3f not ordered", ev.Min, ev.Average, ev.Max)
	}
	// Confusion diagonal must dominate.
	for truth, row := range ev.Confusion {
		diag := row[truth]
		for pred, n := range row {
			if pred != truth && n > diag {
				t.Errorf("%s: confusion row dominated by %s (%d > %d)", truth, pred, n, diag)
			}
		}
	}
}

func TestTopConfusion(t *testing.T) {
	ev := Evaluation{Confusion: map[string]map[string]int{
		"es": {"es": 90, "pt": 8, "fr": 2},
		"fi": {"fi": 100},
	}}
	truth, pred, count, ok := ev.TopConfusion()
	if !ok || truth != "es" || pred != "pt" || count != 8 {
		t.Errorf("TopConfusion = %s->%s x%d ok=%v, want es->pt x8", truth, pred, count, ok)
	}
	// Equal counts resolve to the first (truth, predicted) pair in
	// code order on every call, not in map order.
	tied := Evaluation{Confusion: map[string]map[string]int{
		"sv": {"sv": 9, "da": 3},
		"et": {"et": 9, "fi": 3},
		"es": {"es": 9, "pt": 3, "fr": 3},
	}}
	for i := 0; i < 20; i++ {
		if truth, pred, _, _ := tied.TopConfusion(); truth != "es" || pred != "fr" {
			t.Fatalf("tied TopConfusion = %s->%s, want es->fr", truth, pred)
		}
	}
	perfect := Evaluation{Confusion: map[string]map[string]int{"en": {"en": 5}}}
	if _, _, _, ok := perfect.TopConfusion(); ok {
		t.Error("perfect evaluation reported a confusion")
	}
}

// TestEvaluateDeterministic pins Evaluate to bit-identical results on
// repeated runs: Average is summed in a fixed language order, not in
// map order, so it equals the in-order mean exactly every time. A
// saturated filter (k=1, m=128) spreads the per-language accuracies so
// a different summation order shows in the last bits.
func TestEvaluateDeterministic(t *testing.T) {
	d, err := NewDetector(trainMini(t, Config{TopT: 100, K: 1, MBits: 128}), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	corp := getMiniCorpus(t)
	first := Evaluate(d, corp)
	sum := 0.0
	for _, lang := range first.Languages {
		sum += first.PerLanguage[lang]
	}
	if want := sum / float64(len(first.PerLanguage)); first.Average != want {
		t.Errorf("Average = %v, in-order mean = %v", first.Average, want)
	}
	for i := 0; i < 20; i++ {
		if ev := Evaluate(d, corp); !reflect.DeepEqual(ev, first) {
			t.Fatalf("run %d: %+v differs from first run %+v", i, ev, first)
		}
	}
}
