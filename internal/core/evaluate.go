package core

import (
	"maps"
	"slices"
	"time"

	"bloomlang/internal/corpus"
)

// ThroughputReport is a measured software classification run.
type ThroughputReport struct {
	// Bytes is the total input size processed.
	Bytes int64
	// Elapsed is the wall-clock time for classification only (documents
	// already in memory, matching §5.4's measurement methodology).
	Elapsed time.Duration
	// Docs is the number of documents classified.
	Docs int
}

// MBPerSec returns throughput in the paper's MB/sec (2^20 bytes).
func (r ThroughputReport) MBPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / r.Elapsed.Seconds()
}

// Measure detects all documents over the detector's worker pool — the
// software analogue of the hardware's document-level parallelism (§1)
// — and reports wall-clock throughput. The matches are discarded; use
// DetectBatch when they matter.
func Measure(d *Detector, docs []corpus.Document) ThroughputReport {
	var bytes int64
	for _, doc := range docs {
		bytes += int64(len(doc.Text))
	}
	start := time.Now()
	d.DetectBatch(docs)
	return ThroughputReport{Bytes: bytes, Elapsed: time.Since(start), Docs: len(docs)}
}

// Evaluation aggregates classification accuracy over a labelled test
// set, in the form the paper reports: per-language accuracy, the average
// across languages, and the confusion structure behind §5.2's
// observations.
type Evaluation struct {
	// Languages is the label order for the matrices below.
	Languages []string
	// PerLanguage maps language code to fraction of its test documents
	// classified correctly.
	PerLanguage map[string]float64
	// Average is the unweighted mean of PerLanguage (the paper's
	// "average accuracy"), summed in language-code order (the
	// Languages order) so equal evaluations give bit-identical averages.
	Average float64
	// Min and Max are the extreme per-language accuracies (the paper's
	// "varies between 99.05% and 99.76%").
	Min, Max float64
	// Confusion[truth][predicted] counts documents of language truth
	// classified as predicted ("" for Unknown).
	Confusion map[string]map[string]int
	// Docs is the number of test documents evaluated.
	Docs int
}

// Evaluate detects the corpus test split with d and scores it.
func Evaluate(d *Detector, corp *corpus.Corpus) Evaluation {
	langs := d.Languages()
	ev := Evaluation{
		Languages:   langs,
		PerLanguage: make(map[string]float64, len(langs)),
		Confusion:   make(map[string]map[string]int, len(langs)),
	}
	for _, truth := range corp.Languages {
		docs := corp.Test[truth]
		if len(docs) == 0 {
			continue
		}
		row := make(map[string]int)
		correct := 0
		for _, m := range d.DetectBatch(docs) {
			row[m.Lang]++
			if m.Lang == truth {
				correct++
			}
		}
		ev.Confusion[truth] = row
		acc := float64(correct) / float64(len(docs))
		if len(ev.PerLanguage) == 0 || acc < ev.Min {
			ev.Min = acc
		}
		if len(ev.PerLanguage) == 0 || acc > ev.Max {
			ev.Max = acc
		}
		ev.PerLanguage[truth] = acc
		ev.Docs += len(docs)
	}
	if len(ev.PerLanguage) > 0 {
		for _, lang := range slices.Sorted(maps.Keys(ev.PerLanguage)) {
			ev.Average += ev.PerLanguage[lang]
		}
		ev.Average /= float64(len(ev.PerLanguage))
	}
	return ev
}

// TopConfusion returns the most common misclassification as
// (truth, predicted, count), or ok=false if every document was correct.
// Ties go to the lexicographically first (truth, predicted) pair.
func (ev Evaluation) TopConfusion() (truth, predicted string, count int, ok bool) {
	for _, t := range slices.Sorted(maps.Keys(ev.Confusion)) {
		row := ev.Confusion[t]
		for _, p := range slices.Sorted(maps.Keys(row)) {
			if p == t || p == "" {
				continue
			}
			if n := row[p]; n > count {
				truth, predicted, count, ok = t, p, n, true
			}
		}
	}
	return truth, predicted, count, ok
}
