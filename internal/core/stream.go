package core

import (
	"bloomlang/internal/bloom"
	"bloomlang/internal/ngram"
)

// Stream classifies one document incrementally under the detector's
// policy with bounded memory: bytes arrive in arbitrary chunks via
// Write, n-grams are counted as they complete, and Match reports the
// decision over everything written so far. Reset starts the next
// document. This is the software mirror of the hardware datapath,
// which consumes the DMA stream burst by burst and never buffers whole
// documents (§3.3: "an input word containing multiple translated
// characters is buffered and an n-gram is generated at each character
// position"). A Stream is not safe for concurrent use; create one per
// goroutine.
type Stream struct {
	d      *Detector
	e      ngram.Extractor
	counts []int
	ngrams int
	buf    [bloom.MaskChunk]uint32
}

// NewStream starts an empty document stream on the detector. The
// extractor is a value copy of the classifier's prototype, so streams
// are independent of each other and of the one-shot paths.
func (d *Detector) NewStream() *Stream {
	return &Stream{d: d, e: d.clf.extractor, counts: make([]int, len(d.clf.langs))}
}

// Write feeds the next chunk. It never fails; the error satisfies
// io.Writer.
func (s *Stream) Write(p []byte) (int, error) {
	s.ngrams += countText(s.d.clf, &s.e, &s.buf, s.counts, p)
	return len(p), nil
}

// WriteString is Write for a string chunk without the []byte copy —
// Stream is an io.StringWriter, so io.WriteString detects
// JSON-decoded documents allocation-free.
func (s *Stream) WriteString(p string) (int, error) {
	s.ngrams += countText(s.d.clf, &s.e, &s.buf, s.counts, p)
	return len(p), nil
}

// Match returns the detection over everything written so far; the
// stream stays usable for more chunks.
func (s *Stream) Match() Match { return s.d.match(s.counts, s.ngrams) }

// MatchCounts is Match that also copies the raw per-language match
// counts so far into counts (len at least len(Languages()), in
// Languages() order). It allocates nothing.
func (s *Stream) MatchCounts(counts []int) Match {
	copy(counts[:len(s.counts)], s.counts)
	return s.Match()
}

// Reset prepares the stream for a new document — the End-of-Document
// boundary.
func (s *Stream) Reset() {
	s.e.Reset()
	clear(s.counts)
	s.ngrams = 0
}
