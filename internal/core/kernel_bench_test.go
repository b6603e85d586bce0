package core

import (
	"testing"

	"bloomlang/internal/corpus"
)

// BenchmarkKernel measures the fused membership kernels alone: one
// paper-sized document's n-grams, pre-extracted, scored against all ten
// languages of a DefaultConfig profile set. ns/ngram is the per-n-gram
// cost of hashing, the lane loads and the vertical counter.
func BenchmarkKernel(b *testing.B) {
	corp, err := corpus.Generate(corpus.Config{DocsPerLanguage: 12, WordsPerDoc: 1300, TrainFraction: 0.5, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	ps, err := Train(DefaultConfig(), corp)
	if err != nil {
		b.Fatal(err)
	}
	doc := corp.Test["en"][0].Text
	for _, backend := range []Backend{BackendBlocked, BackendDirect} {
		b.Run(backend.String(), func(b *testing.B) {
			c, err := New(ps, backend)
			if err != nil {
				b.Fatal(err)
			}
			gs := c.ExtractGrams(nil, doc)
			counts := make([]int, len(c.Languages()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.kernel.AccumulateInto(counts, gs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(gs)), "ns/ngram")
		})
	}
}
