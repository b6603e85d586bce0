package core

import (
	"bloomlang/internal/bloom"
	"bloomlang/internal/ngram"
)

// DocumentStream classifies one document incrementally with bounded
// memory: bytes arrive in arbitrary chunks (an io.Writer), n-grams are
// matched as they complete, and the running counters are available at
// any point. This is the software mirror of the hardware datapath,
// which consumes the DMA stream burst by burst and never buffers whole
// documents (§3.3: "an input word containing multiple translated
// characters is buffered and an n-gram is generated at each character
// position").
type DocumentStream struct {
	c      *Classifier
	e      ngram.Extractor
	counts []int
	ngrams int
	buf    [bloom.MaskChunk]uint32
}

// NewStream starts an empty document stream on the classifier. The
// extractor is a value copy of the classifier's prototype, so streams
// are independent of each other and of the one-shot paths.
func (c *Classifier) NewStream() *DocumentStream {
	return &DocumentStream{c: c, e: c.extractor, counts: make([]int, len(c.matchers))}
}

// Write feeds the next chunk of the document. It never fails; the
// error return satisfies io.Writer.
func (s *DocumentStream) Write(p []byte) (int, error) {
	s.ngrams += countText(s.c, &s.e, &s.buf, s.counts, p)
	return len(p), nil
}

// WriteString is Write for a string chunk, without the []byte copy
// io.WriteString would otherwise make.
func (s *DocumentStream) WriteString(p string) (int, error) {
	s.ngrams += countText(s.c, &s.e, &s.buf, s.counts, p)
	return len(p), nil
}

// Result returns the classification of everything written so far. The
// stream remains usable; more chunks may follow.
func (s *DocumentStream) Result() Result {
	r := Result{
		Counts: append([]int(nil), s.counts...),
		NGrams: s.ngrams,
		Best:   -1,
		Second: -1,
	}
	r.selectWinners()
	return r
}

// Reset prepares the stream for a new document — the End-of-Document
// boundary.
func (s *DocumentStream) Reset() {
	s.e.Reset()
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.ngrams = 0
}
