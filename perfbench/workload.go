package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"unicode/utf8"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
)

// A workload is one traffic mix: an endpoint, the backend langidd
// serves it with, and a seeded pool of pre-encoded request bodies. Every
// workload is served from profiles trained on the same seeded corpus of
// all ten languages.
type workload struct {
	endpoint string // /detect, /stream or /segment
	backend  string // langidd -backend value
	train    *corpus.Corpus
	docs     []doc
}

// doc is one request document with its ground truth and its request
// body, encoded before any timing starts.
type doc struct {
	id    int
	lang  string                // true language of a whole-document workload
	truth []corpus.MixedSegment // true tiling of a mixed document
	text  []byte                // ISO-8859-1 bytes as generated
	body  []byte                // raw text, or one NDJSON line with its newline
}

var workloadNames = []string{"detect-long", "stream-short", "segment-mixed"}

// Input sizes. Training: 10 paper-sized documents per language (the
// paper trains on 10% of its corpus). detect-long replays held-out
// paper-sized documents (~1300 words, ~6.8 KB each); stream-short sends
// query-sized documents (~10 words); segment-mixed sends three ~60-word
// segments per document. Document lengths are log-normal, so the pools
// are large enough that their mean and median length, and with them the
// work per document, hardly change from one seed to the next.
const (
	trainDocsPerLang  = 10
	longDocsPerLang   = 200
	longWords         = 1300
	shortDocsPerLang  = 500
	shortWords        = 10
	mixedDocs         = 1000
	mixedSegments     = 3
	mixedSegmentWords = 60
)

func newWorkload(name string, seed int64) (*workload, error) {
	// Generate needs at least one held-out document; it is not used.
	train, err := corpus.Generate(corpus.Config{
		DocsPerLanguage: trainDocsPerLang + 1,
		WordsPerDoc:     longWords,
		TrainFraction:   float64(trainDocsPerLang) / float64(trainDocsPerLang+1),
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	for _, lang := range train.Languages {
		if n := len(train.TrainTexts(lang)); n != trainDocsPerLang {
			return nil, fmt.Errorf("training corpus has %d %s documents, want %d", n, lang, trainDocsPerLang)
		}
	}
	w := &workload{train: train}
	switch name {
	case "detect-long":
		w.endpoint, w.backend = "/detect", "blocked-bloom"
		long, err := heldOut(longDocsPerLang, longWords, seed^0x10c9)
		if err != nil {
			return nil, err
		}
		for i, d := range long {
			w.docs = append(w.docs, doc{id: i, lang: d.Language, text: d.Text, body: d.Text})
		}
	case "stream-short":
		w.endpoint, w.backend = "/stream", "blocked-bloom"
		short, err := heldOut(shortDocsPerLang, shortWords, seed^0x5eed5eed)
		if err != nil {
			return nil, err
		}
		for i, d := range short {
			line, err := encodeLine(i, d.Text)
			if err != nil {
				return nil, err
			}
			w.docs = append(w.docs, doc{id: i, lang: d.Language, text: d.Text, body: line})
		}
	case "segment-mixed":
		w.endpoint, w.backend = "/segment", "direct-lookup"
		mixed, err := corpus.GenerateMixed(corpus.MixedConfig{
			Docs:            mixedDocs,
			SegmentsPerDoc:  mixedSegments,
			WordsPerSegment: mixedSegmentWords,
			Seed:            seed + 0x3a7,
		})
		if err != nil {
			return nil, err
		}
		for i, d := range mixed {
			w.docs = append(w.docs, doc{id: i, truth: d.Segments, text: d.Text, body: d.Text})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// heldOut generates perLang documents of about words words in each
// language, none of them in the training corpus. One training document
// is the minimum Generate accepts; it is discarded.
func heldOut(perLang, words int, seed int64) ([]corpus.Document, error) {
	c, err := corpus.Generate(corpus.Config{
		DocsPerLanguage: perLang + 1,
		WordsPerDoc:     words,
		TrainFraction:   1.0 / float64(perLang+1),
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	return c.TestDocuments(""), nil
}

// latin1ToUTF8 transcodes ISO-8859-1 bytes to UTF-8: every byte is the
// code point of the same value. JSON strings are UTF-8, and
// encoding/json replaces each invalid byte with U+FFFD, so the
// generator's accented Latin-1 letters must be transcoded before they
// go into a JSON line.
func latin1ToUTF8(b []byte) string {
	out := make([]byte, 0, len(b)+len(b)/8)
	for _, c := range b {
		out = utf8.AppendRune(out, rune(c))
	}
	return string(out)
}

// encodeLine builds one /stream request line {"id":..,"text":..}\n and
// checks that it decodes back to exactly the intended runes.
func encodeLine(id int, latin1 []byte) ([]byte, error) {
	text := latin1ToUTF8(latin1)
	line, err := json.Marshal(struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}{strconv.Itoa(id), text})
	if err != nil {
		return nil, err
	}
	var back struct{ Text string }
	if err := json.Unmarshal(line, &back); err != nil {
		return nil, fmt.Errorf("line %d does not decode: %v", id, err)
	}
	got := []rune(back.Text)
	if len(got) != len(latin1) {
		return nil, fmt.Errorf("line %d decodes to %d runes, want %d", id, len(got), len(latin1))
	}
	for i, r := range got {
		if r != rune(latin1[i]) {
			return nil, fmt.Errorf("line %d rune %d decodes to %U, want %U", id, i, r, rune(latin1[i]))
		}
	}
	return append(line, '\n'), nil
}

// reference holds the in-process answers every HTTP answer must equal:
// Detector.Detect (and, for /stream, Detect on the UTF-8 bytes the
// server receives today) or DetectSpans under the default geometry.
type reference struct {
	match     []core.Match
	matchUTF8 []core.Match
	spans     [][]core.Span
	geometry  core.SegmentConfig
}

func newReference(w *workload, det *core.Detector) (*reference, error) {
	n := len(w.docs)
	ref := &reference{
		geometry:  core.SegmentConfig{}.WithDefaults(),
		match:     make([]core.Match, n),
		matchUTF8: make([]core.Match, n),
		spans:     make([][]core.Span, n),
	}
	// The pool is split across the CPUs; the detector is safe for
	// concurrent use.
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < n; i += workers {
				d := &w.docs[i]
				switch w.endpoint {
				case "/detect":
					ref.match[i] = det.Detect(d.text)
				case "/stream":
					ref.match[i] = det.Detect(d.text)
					ref.matchUTF8[i] = det.Detect([]byte(latin1ToUTF8(d.text)))
				case "/segment":
					sp, err := det.DetectSpans(d.text, core.SegmentConfig{})
					if err != nil && errs[k] == nil {
						errs[k] = err
					}
					ref.spans[i] = sp
				}
			}
		}()
	}
	wg.Wait()
	return ref, errors.Join(errs...)
}

// detection and segmentation are the parts of langidd's response
// bodies the check reads.
type detection struct {
	ID       *string `json:"id"`
	Language string  `json:"language"`
	NGrams   int     `json:"ngrams"`
	Count    int     `json:"count"`
	Score    float64 `json:"score"`
	Margin   float64 `json:"margin"`
	Unknown  bool    `json:"unknown"`
	Error    string  `json:"error"`
}

type segmentation struct {
	Bytes  int `json:"bytes"`
	Window int `json:"window"`
	Stride int `json:"stride"`
	Spans  []struct {
		Start    int     `json:"start"`
		End      int     `json:"end"`
		Language string  `json:"language"`
		Score    float64 `json:"score"`
		Margin   float64 `json:"margin"`
		Unknown  bool    `json:"unknown"`
	} `json:"spans"`
}

func (d detection) equals(m core.Match) bool {
	return d.Error == "" && d.Language == m.Lang && d.NGrams == m.NGrams && d.Count == m.Count &&
		d.Score == m.Score && d.Margin == m.Margin && d.Unknown == m.Unknown
}

// check decodes one response body for pool document d, compares it with
// the in-process reference, and returns the answer as labelled byte
// ranges.
func (ref *reference) check(endpoint string, d *doc, body []byte) ([]core.Span, error) {
	switch endpoint {
	case "/detect", "/stream":
		var got detection
		if err := json.Unmarshal(body, &got); err != nil {
			return nil, fmt.Errorf("doc %d: malformed answer %q: %v", d.id, body, err)
		}
		if endpoint == "/stream" {
			if got.ID == nil || *got.ID != strconv.Itoa(d.id) {
				return nil, fmt.Errorf("doc %d: answer out of order or without its id: %q", d.id, body)
			}
			if !got.equals(ref.match[d.id]) && !got.equals(ref.matchUTF8[d.id]) {
				return nil, fmt.Errorf("doc %d: answer %q differs from in-process Detect %+v", d.id, body, ref.match[d.id])
			}
		} else if !got.equals(ref.match[d.id]) {
			return nil, fmt.Errorf("doc %d: answer %q differs from in-process Detect %+v", d.id, body, ref.match[d.id])
		}
		return []core.Span{{Start: 0, End: len(d.text), Lang: got.Language}}, nil
	case "/segment":
		var got segmentation
		if err := json.Unmarshal(body, &got); err != nil {
			return nil, fmt.Errorf("doc %d: malformed answer %q: %v", d.id, body, err)
		}
		want := ref.spans[d.id]
		if got.Bytes != len(d.text) || got.Window != ref.geometry.Window || got.Stride != ref.geometry.Stride || len(got.Spans) != len(want) {
			return nil, fmt.Errorf("doc %d: answer %q differs from in-process DetectSpans %+v", d.id, body, want)
		}
		for i, s := range got.Spans {
			w := want[i]
			if s.Start != w.Start || s.End != w.End || s.Language != w.Lang || s.Score != w.Score || s.Margin != w.Margin || s.Unknown != w.Unknown {
				return nil, fmt.Errorf("doc %d: span %d %+v differs from in-process DetectSpans %+v", d.id, i, s, w)
			}
		}
		return want, nil
	}
	return nil, fmt.Errorf("no check for endpoint %s", endpoint)
}

// checker validates the answers for a client's share of the pool. A
// document's answer is deterministic, so once one body has been checked
// in full, later byte-identical bodies for that document are accepted
// by comparison; any other body is checked in full again.
type checker struct {
	ref      *reference
	endpoint string
	docs     []doc
	seen     []seen // by pool index
}

type seen struct {
	body  []byte      // the last body checked in full
	spans []core.Span // its answer
	n     int         // answers received
}

func newChecker(ref *reference, w *workload) *checker {
	return &checker{ref: ref, endpoint: w.endpoint, docs: w.docs, seen: make([]seen, len(w.docs))}
}

func (c *checker) check(i int, body []byte) error {
	s := &c.seen[i]
	if s.body == nil || !bytes.Equal(s.body, body) {
		spans, err := c.ref.check(c.endpoint, &c.docs[i], body)
		if err != nil {
			return err
		}
		s.body, s.spans = bytes.Clone(body), spans
	}
	s.n++
	return nil
}

// quality scores the checked answers against ground truth, each
// document weighted by how often it was answered: accuracy is the share
// of bytes labelled with their true language (for whole documents, the
// share of documents), and spanF1 the mean over languages of byte-level
// F1 as segment_golden_test.go defines it (a whole-document answer is
// one span).
func quality(docs []doc, checkers []*checker) (accuracy, spanF1 float64) {
	tp, fp, fn := map[string]float64{}, map[string]float64{}, map[string]float64{}
	var correct, total float64
	for _, c := range checkers {
		for i, s := range c.seen {
			if s.n == 0 {
				continue
			}
			d := &docs[i]
			truth := d.truth
			if truth == nil {
				truth = []corpus.MixedSegment{{Lang: d.lang, Start: 0, End: len(d.text)}}
			}
			weight := float64(s.n)
			if d.truth == nil {
				// A whole document counts once, whatever its length.
				weight /= float64(len(d.text))
			}
			for _, sp := range s.spans {
				for _, t := range truth {
					lo, hi := max(sp.Start, t.Start), min(sp.End, t.End)
					if lo >= hi {
						continue
					}
					b := float64(hi-lo) * weight
					total += b
					if sp.Lang == t.Lang {
						correct += b
						tp[t.Lang] += b
						continue
					}
					fn[t.Lang] += b
					if sp.Lang != "" {
						fp[sp.Lang] += b
					}
				}
			}
		}
	}
	langs := map[string]bool{}
	for l := range tp {
		langs[l] = true
	}
	for l := range fn {
		langs[l] = true
	}
	var sum float64
	for l := range langs {
		if den := 2*tp[l] + fp[l] + fn[l]; den > 0 {
			sum += 2 * tp[l] / den
		}
	}
	if total > 0 {
		accuracy = correct / total
	}
	if len(langs) > 0 {
		spanF1 = sum / float64(len(langs))
	}
	return accuracy, spanF1
}
