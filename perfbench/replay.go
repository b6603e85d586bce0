package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/core"
	"bloomlang/internal/h3"
	"bloomlang/internal/ngram"
	"bloomlang/internal/serve"
)

// span is one traced call: its layer, its parent span (-1 for a root)
// and the pool document it worked on (-1 for a pass over many).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Doc    int    `json:"doc"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced replay.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int // spans recorded and tallied but not kept
}

func (t *tracer) begin(name string, parent, doc int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Doc: doc, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Layer span names. Every call the replay makes into the program is
// one of these, each through the layer's public entry point.
const (
	spanHandler   = "serve.handler"      // Server.Handler().ServeHTTP, one request or stream line
	spanDetect    = "core.detect"        // Detector.Detect
	spanSegment   = "core.segment"       // Detector.AppendSpans, reused destination
	spanTranslate = "alphabet.translate" // alphabet.TranslateInto
	spanExtract   = "ngram.extract"      // Extractor.Feed
	spanHash      = "h3.hashall"         // Family.HashAll over the document's n-grams
	spanCount     = "core.count"         // Classifier.ClassifyGrams: kernel plus winner selection
)

const (
	batchDocs = 32      // documents per replay pass
	maxSpans  = 100_000 // bounds the trace kept in memory
)

// layerTotals accumulates one layer's spans.
type layerTotals struct {
	busy   time.Duration
	allocs uint64
	bytes  uint64
	durs   []time.Duration
}

// replayer replays the workload's pool in-process, layer by layer, in
// passes of batchDocs documents.
type replayer struct {
	w       *workload
	det     *core.Detector
	clf     *core.Classifier
	handler http.Handler
	chk     *checker
	fam     *h3.Family
	proto   *ngram.Extractor

	codes [][]alphabet.Code
	grams [][]uint32
	sinks []*sink
	spans []core.Span
	hash  []uint32
	keep  uint64 // results folded in so no call is dead code

	totals    map[string]*layerTotals
	docs      int
	docBytes  int
	ngrams    int
	spanCount int
	traced    time.Duration
	untraced  time.Duration
	attempted int
	failed    int
	errs      []error
}

func newReplayer(w *workload, ps *core.ProfileSet, det *core.Detector, ref *reference) (*replayer, error) {
	backend, err := core.ParseBackend(w.backend)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(ps, serve.Config{Backend: backend})
	if err != nil {
		return nil, err
	}
	cfg := det.Config()
	fam, err := h3.NewFamily(cfg.K, ngram.Bits(cfg.N), uint(bits.TrailingZeros32(cfg.MBits)), cfg.Seed)
	if err != nil {
		return nil, err
	}
	proto, err := ngram.NewExtractor(cfg.N)
	if err != nil {
		return nil, err
	}
	r := &replayer{
		w: w, det: det, clf: det.Classifier(), handler: srv.Handler(),
		chk: newChecker(ref, w), fam: fam, proto: proto,
		codes: make([][]alphabet.Code, batchDocs), grams: make([][]uint32, batchDocs),
		hash: make([]uint32, cfg.K), totals: map[string]*layerTotals{},
	}
	for range batchDocs {
		r.sinks = append(r.sinks, &sink{header: http.Header{}})
	}
	return r, nil
}

// run replays passes until d has elapsed. Each batch is replayed once
// traced and once untraced, alternating which goes first, so the
// difference is the tracing overhead. Once the trace holds maxSpans,
// later batches still count but their spans are not kept.
func (r *replayer) run(d time.Duration, tr *tracer) {
	deadline := time.Now().Add(d)
	root := tr.begin("replay", -1, -1)
	for b := 0; time.Now().Before(deadline); b++ {
		kept := len(tr.spans)
		batch := make([]*doc, batchDocs)
		for j := range batch {
			batch[j] = &r.w.docs[(b*batchDocs+j)%len(r.w.docs)]
		}
		if b%2 == 0 {
			r.traced += r.batch(batch, tr, root)
			r.untraced += r.batch(batch, nil, -1)
		} else {
			r.untraced += r.batch(batch, nil, -1)
			r.traced += r.batch(batch, tr, root)
		}
		for _, dd := range batch {
			r.docBytes += len(dd.text)
		}
		r.docs += len(batch)
		if len(tr.spans) > maxSpans {
			tr.dropped += len(tr.spans) - kept
			tr.spans = tr.spans[:kept]
		}
	}
	tr.end(root)
}

// batch runs every layer over the batch and returns the time spent
// inside the layer passes. With a tracer it records spans and
// allocations; without one it only times the passes.
func (r *replayer) batch(docs []*doc, tr *tracer, root int) time.Duration {
	var total time.Duration
	first := 0
	if tr != nil {
		first = len(tr.spans)
	}
	pass := func(name string, counted bool, prepare func(), call func(j int, d *doc)) {
		if prepare != nil {
			prepare()
		}
		var m0, m1 runtime.MemStats
		if tr != nil && counted {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		p := tr.begin(name+".pass", root, -1)
		for j, d := range docs {
			id := tr.begin(name, p, d.id)
			call(j, d)
			tr.end(id)
		}
		tr.end(p)
		total += time.Since(t0)
		if tr != nil && counted {
			runtime.ReadMemStats(&m1)
			lt := r.layer(name)
			lt.allocs += m1.Mallocs - m0.Mallocs
			lt.bytes += m1.TotalAlloc - m0.TotalAlloc
		}
	}

	if r.w.endpoint == "/stream" {
		total += r.streamPass(docs, tr, root)
	} else {
		reqs := make([]*http.Request, len(docs))
		pass(spanHandler, true, func() {
			for j, d := range docs {
				reqs[j] = httptest.NewRequest(http.MethodPost, r.w.endpoint, bytes.NewReader(d.body))
				r.sinks[j].reset()
			}
		}, func(j int, d *doc) {
			r.handler.ServeHTTP(r.sinks[j], reqs[j])
		})
		for j, d := range docs {
			r.checkAnswer(d, r.sinks[j], r.sinks[j].body.Bytes())
		}
	}
	pass(spanDetect, true, nil, func(j int, d *doc) {
		r.keep += uint64(r.det.Detect(d.text).Count)
	})
	pass(spanSegment, true, nil, func(j int, d *doc) {
		r.spans, _ = r.det.AppendSpans(r.spans[:0], d.text, core.SegmentConfig{})
		if tr != nil {
			r.spanCount += len(r.spans)
		}
	})
	pass(spanTranslate, false, nil, func(j int, d *doc) {
		if cap(r.codes[j]) < len(d.text) {
			r.codes[j] = make([]alphabet.Code, len(d.text))
		}
		r.codes[j] = r.codes[j][:len(d.text)]
		alphabet.TranslateInto(r.codes[j], d.text)
	})
	pass(spanExtract, false, nil, func(j int, d *doc) {
		e := *r.proto
		r.grams[j] = e.Feed(r.grams[j][:0], r.codes[j])
		if tr != nil {
			r.ngrams += len(r.grams[j])
		}
	})
	pass(spanHash, false, nil, func(j int, d *doc) {
		for _, g := range r.grams[j] {
			r.keep += uint64(r.fam.HashAll(r.hash, g)[0])
		}
	})
	pass(spanCount, false, nil, func(j int, d *doc) {
		r.keep += uint64(r.clf.ClassifyGrams(r.grams[j]).Best)
	})
	if tr != nil {
		r.tally(tr, first)
	}
	return total
}

// streamPass sends the batch as one /stream request whose body hands
// the handler one line per Read, so each line's span runs from the
// Read that delivered it to the Read that asks for the next.
func (r *replayer) streamPass(docs []*doc, tr *tracer, root int) time.Duration {
	s := r.sinks[0]
	s.reset()
	lr := &lineReader{docs: docs, tr: tr, open: -1}
	req := httptest.NewRequest(http.MethodPost, "/stream", lr)
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	lr.parent = tr.begin(spanHandler+".pass", root, -1)
	r.handler.ServeHTTP(s, req)
	tr.end(lr.parent)
	took := time.Since(t0)
	if tr != nil {
		runtime.ReadMemStats(&m1)
		lt := r.layer(spanHandler)
		lt.allocs += m1.Mallocs - m0.Mallocs
		lt.bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	lines := bytes.SplitAfter(s.body.Bytes(), []byte("\n"))
	for j, d := range docs {
		var line []byte
		if j < len(lines) {
			line = lines[j]
		}
		r.checkAnswer(d, s, line)
	}
	return took
}

func (r *replayer) checkAnswer(d *doc, s *sink, body []byte) {
	r.attempted++
	err := r.chk.check(d.id, body)
	if s.status != http.StatusOK {
		err = fmt.Errorf("doc %d: in-process status %d", d.id, s.status)
	}
	if err != nil {
		r.failed++
		if len(r.errs) < 3 {
			r.errs = append(r.errs, err)
		}
	}
}

func (r *replayer) layer(name string) *layerTotals {
	lt := r.totals[name]
	if lt == nil {
		lt = &layerTotals{}
		r.totals[name] = lt
	}
	return lt
}

// tally folds the per-document spans recorded since first into the
// layer totals.
func (r *replayer) tally(tr *tracer, first int) {
	for i := first; i < len(tr.spans); i++ {
		s := &tr.spans[i]
		if s.Doc < 0 {
			continue
		}
		lt := r.layer(s.Name)
		d := time.Duration(s.End - s.Start)
		lt.busy += d
		lt.durs = append(lt.durs, d)
	}
}

// lineReader is a /stream request body that delivers one line per
// Read and records each line's handler span.
type lineReader struct {
	docs   []*doc
	tr     *tracer
	parent int
	k, off int
	open   int
}

func (l *lineReader) Read(p []byte) (int, error) {
	if l.open >= 0 {
		l.tr.end(l.open)
		l.open = -1
	}
	if l.k == len(l.docs) {
		return 0, io.EOF
	}
	d := l.docs[l.k]
	n := copy(p, d.body[l.off:])
	l.off += n
	if l.off == len(d.body) {
		l.k, l.off = l.k+1, 0
		l.open = l.tr.begin(spanHandler, l.parent, d.id)
	}
	return n, nil
}

// sink is a minimal in-memory ResponseWriter.
type sink struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (s *sink) reset() {
	clear(s.header)
	s.status = http.StatusOK
	s.body.Reset()
}

func (s *sink) Header() http.Header         { return s.header }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Write(p []byte) (int, error) { return s.body.Write(p) }
func (s *sink) Flush()                      {}
