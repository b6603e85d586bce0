package core

import (
	"runtime"
	"sync"
	"time"

	"bloomlang/internal/corpus"
)

// Engine fans document classification out over a pool of goroutines.
// It is the software analogue of the hardware's document-level
// parallelism ("parallel document processing", §1): each worker owns
// its document stream and the classifier's membership structures are
// read-only after construction, so the hot path shares nothing mutable.
type Engine struct {
	c       *Classifier
	workers int
}

// NewEngine wraps a classifier; workers <= 0 means GOMAXPROCS.
func NewEngine(c *Classifier, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{c: c, workers: workers}
}

// Classifier returns the wrapped classifier.
func (e *Engine) Classifier() *Classifier { return e.c }

// Workers returns the configured pool size.
func (e *Engine) Workers() int { return e.workers }

// ClassifyAll classifies every document, preserving input order in the
// returned results.
func (e *Engine) ClassifyAll(docs []corpus.Document) []Result {
	results := make([]Result, len(docs))
	if len(docs) == 0 {
		return results
	}
	workers := e.workers
	if workers > len(docs) {
		workers = len(docs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds := e.c.NewStream()
			for i := range next {
				ds.Reset()
				ds.Write(docs[i].Text)
				results[i] = ds.Result()
			}
		}()
	}
	for i := range docs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

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

// Measure classifies all documents and reports wall-clock throughput.
// Results are discarded; use ClassifyAll when they matter.
func (e *Engine) Measure(docs []corpus.Document) ThroughputReport {
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Text))
	}
	start := time.Now()
	e.ClassifyAll(docs)
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
	// "average accuracy").
	Average float64
	// Min and Max are the extreme per-language accuracies (the paper's
	// "varies between 99.05% and 99.76%").
	Min, Max float64
	// Confusion[truth][predicted] counts documents of language truth
	// classified as predicted.
	Confusion map[string]map[string]int
	// Docs is the number of test documents evaluated.
	Docs int
}

// Evaluate classifies the corpus test split and scores it.
func (e *Engine) Evaluate(corp *corpus.Corpus) Evaluation {
	langs := e.c.Languages()
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
		results := e.ClassifyAll(docs)
		row := make(map[string]int)
		correct := 0
		for _, r := range results {
			pred := r.BestLanguage(langs)
			row[pred]++
			if pred == truth {
				correct++
			}
		}
		ev.Confusion[truth] = row
		acc := float64(correct) / float64(len(docs))
		ev.PerLanguage[truth] = acc
		ev.Docs += len(docs)
	}
	first := true
	for _, acc := range ev.PerLanguage {
		ev.Average += acc
		if first || acc < ev.Min {
			ev.Min = acc
		}
		if first || acc > ev.Max {
			ev.Max = acc
		}
		first = false
	}
	if n := len(ev.PerLanguage); n > 0 {
		ev.Average /= float64(n)
	}
	return ev
}

// TopConfusion returns the most common misclassification as
// (truth, predicted, count), or ok=false if every document was correct.
func (ev Evaluation) TopConfusion() (truth, predicted string, count int, ok bool) {
	for t, row := range ev.Confusion {
		for p, n := range row {
			if p == t || p == "" {
				continue
			}
			if n > count {
				truth, predicted, count, ok = t, p, n, true
			}
		}
	}
	return truth, predicted, count, ok
}
