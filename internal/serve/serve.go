// Package serve is the network-facing serving subsystem: an
// http.Handler that exposes a trained classifier as the
// language-detection service the paper positions the hardware behind —
// a search-engine or filtering front-end fielding a heavy stream of
// documents (§1, §5.4).
//
// Endpoints:
//
//	POST /detect          body = one raw document        -> one JSON Detection
//	POST /batch           body = JSON array of documents -> JSON array of Detections
//	POST /stream          body = NDJSON documents        -> NDJSON Detections, incremental
//	                      (?spans=1 adds the per-document mixed-language spans)
//	POST /segment         body = one raw document        -> JSON Segmentation (spans)
//	GET  /healthz         liveness probe                 -> 200 "ok"
//	GET  /statsz          request/byte/latency counters  -> JSON Snapshot
//	GET  /admin/profiles  profile versions + active      -> JSON ProfilesStatus (registry-backed servers)
//	POST /admin/reload    hot-swap to the active version -> JSON ReloadStatus   (registry-backed servers)
//
// All endpoints route through one core.Detector, reached through a
// registry.Handle: every request atomically loads the current
// (detector, version) snapshot once and uses it throughout, so a
// profile hot swap is zero-downtime — in-flight requests keep the
// detector they loaded, requests arriving after the swap see the new
// one, and no request ever blocks on or observes a torn swap. Failed
// requests are answered with a JSON error body ({"error": ...,
// "status": ...}): oversized bodies as 413, request-body read
// timeouts as 408.
package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/registry"
)

// Config carries the serving-layer knobs.
type Config struct {
	// Backend selects the membership structure; default BackendBloom.
	Backend core.Backend
	// Workers bounds /batch fan-out; 0 means GOMAXPROCS.
	Workers int
	// MinMargin is the normalized winner-margin floor below which a
	// document is answered as unknown (language ""); default 0 accepts
	// everything but exact-empty documents.
	MinMargin float64
	// MinNGrams is the minimum testable n-grams for a known outcome;
	// effective minimum 1.
	MinNGrams int
	// MaxBodyBytes caps /detect and /batch request bodies; default 10 MiB.
	// /stream is unbounded in total size by design and bounded per line
	// instead.
	MaxBodyBytes int64
	// MaxBatchDocs caps the number of documents in one /batch request;
	// default 1024.
	MaxBatchDocs int
	// MaxLineBytes caps one NDJSON line on /stream; default 1 MiB.
	MaxLineBytes int
	// IncludeCounts adds per-language match counts to every Detection
	// (always included on /detect).
	IncludeCounts bool
	// Segment carries the sliding-window geometry /segment and the
	// /stream spans mode run under; the zero value selects the core
	// defaults. Invalid geometry fails server construction.
	Segment core.SegmentConfig
	// ReadTimeout bounds reading a whole request (header + body) on
	// servers built by HTTPServer; 0 means no limit. A tripped read
	// deadline surfaces as a 408 JSON error. Long-lived /stream uploads
	// need this generous or zero.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing a response on servers built by
	// HTTPServer; 0 means no limit.
	WriteTimeout time.Duration
	// IdleTimeout bounds keep-alive idleness on servers built by
	// HTTPServer; 0 means no limit.
	IdleTimeout time.Duration
	// Registry, when set, enables the /admin/profiles and /admin/reload
	// endpoints and SIGHUP-style Reload against this profile store.
	Registry *registry.Registry
}

func (c *Config) applyDefaults() {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 10 << 20
	}
	if c.MaxBatchDocs <= 0 {
		c.MaxBatchDocs = 1024
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 1 << 20
	}
}

// Server owns the hot-swappable detector handle and the serving
// counters. It is safe for concurrent use by any number of
// connections, including concurrent profile reloads.
type Server struct {
	cfg    Config
	handle *registry.Handle
	reg    *registry.Registry
	start  time.Time

	reloadMu sync.Mutex // serializes Reload; request paths never take it

	detect        endpointStats
	batch         endpointStats
	stream        endpointStats
	segment       endpointStats
	healthz       endpointStats
	statsz        endpointStats
	adminProfiles endpointStats
	adminReload   endpointStats
}

// New builds a server from trained profiles. The profiles serve under
// the empty version id unless the server is registry-backed and later
// reloaded.
func New(ps *core.ProfileSet, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if err := cfg.Segment.Validate(); err != nil {
		return nil, err
	}
	det, err := core.NewDetector(ps, cfg.detectorOptions()...)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:    cfg,
		handle: registry.NewHandle(det, ""),
		reg:    cfg.Registry,
		start:  time.Now(),
	}, nil
}

// NewFromRegistry builds a server from the registry's active profile
// version; cfg.Registry is overridden with reg. The server then serves
// that version until Reload (or /admin/reload) swaps in a newer one.
func NewFromRegistry(reg *registry.Registry, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	cfg.Registry = reg
	ps, m, err := reg.LoadActive()
	if err != nil {
		return nil, err
	}
	s, err := New(ps, cfg)
	if err != nil {
		return nil, err
	}
	s.handle.Swap(s.handle.Detector(), m.Version)
	return s, nil
}

// detectorOptions is the server's detection policy: backend, batch
// fan-out and the unknown thresholds.
func (c *Config) detectorOptions() []core.DetectorOption {
	return []core.DetectorOption{
		core.WithBackend(c.Backend),
		core.WithWorkers(c.Workers),
		core.WithMinMargin(c.MinMargin),
		core.WithMinNGrams(c.MinNGrams),
	}
}

// Detector returns the detector currently serving requests. Callers
// needing the detector and its version to agree should use Snapshot.
func (s *Server) Detector() *core.Detector { return s.handle.Detector() }

// Snapshot returns the current (detector, version) pairing.
func (s *Server) Snapshot() *registry.Snapshot { return s.handle.Snapshot() }

// SwapDetector atomically replaces the serving detector — the
// registry-less hot-swap path for embedders that manage their own
// profile lifecycle. It returns the previously served version id.
// SwapDetector serializes with Reload, so a concurrent /admin/reload
// cannot interleave with (and silently clobber) an embedder's swap.
func (s *Server) SwapDetector(det *core.Detector, version string) string {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.handle.Swap(det, version).Version
}

// ReloadStatus reports one Reload outcome.
type ReloadStatus struct {
	// Previous is the version serving before the reload.
	Previous string `json:"previous"`
	// Active is the version serving after the reload (the registry's
	// active version).
	Active string `json:"active"`
	// Changed reports whether the reload actually swapped detectors;
	// reloading an unchanged active version is a no-op.
	Changed bool `json:"changed"`
	// Languages is the served language inventory after the reload.
	Languages []string `json:"languages"`
}

// Reload loads the registry's active profile version and hot-swaps it
// into the serving path. Requests in flight finish on the detector
// they started with; requests arriving after Reload returns see the
// new version. Reloading while the served version is already the
// active one is a cheap no-op.
func (s *Server) Reload() (ReloadStatus, error) {
	if s.reg == nil {
		return ReloadStatus{}, errors.New("serve: no registry configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	prev := s.handle.Version()
	activeID, err := s.reg.ActiveVersion()
	if err != nil {
		return ReloadStatus{}, err
	}
	if activeID == prev {
		det := s.handle.Detector()
		return ReloadStatus{Previous: prev, Active: prev, Languages: det.Languages()}, nil
	}
	ps, m, err := s.reg.LoadActive()
	if err != nil {
		return ReloadStatus{}, err
	}
	det, err := core.NewDetector(ps, s.cfg.detectorOptions()...)
	if err != nil {
		return ReloadStatus{}, err
	}
	s.handle.Swap(det, m.Version)
	return ReloadStatus{Previous: prev, Active: m.Version, Changed: true, Languages: det.Languages()}, nil
}

// Handler returns the service mux. The admin endpoints are mounted
// only on registry-backed servers; deployments should keep /admin
// reachable by operators only.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/detect", s.measure(&s.detect, http.MethodPost, s.handleDetect))
	mux.Handle("/batch", s.measure(&s.batch, http.MethodPost, s.handleBatch))
	mux.Handle("/stream", s.measure(&s.stream, http.MethodPost, s.handleStream))
	mux.Handle("/segment", s.measure(&s.segment, http.MethodPost, s.handleSegment))
	mux.Handle("/healthz", s.measure(&s.healthz, http.MethodGet, s.handleHealthz))
	mux.Handle("/statsz", s.measure(&s.statsz, http.MethodGet, s.handleStatsz))
	if s.reg != nil {
		mux.Handle("/admin/profiles", s.measure(&s.adminProfiles, http.MethodGet, s.handleAdminProfiles))
		mux.Handle("/admin/reload", s.measure(&s.adminReload, http.MethodPost, s.handleAdminReload))
	}
	return mux
}

// HTTPServer wraps the handler in an http.Server with the configured
// read/write/idle timeouts — the hardened listener cmd/langidd runs.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Snapshot {
	snap := s.handle.Snapshot()
	det := snap.Detector
	out := Snapshot{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Backend:        det.Backend().String(),
		Workers:        det.Workers(),
		MinMargin:      det.MinMargin(),
		MinNGrams:      det.MinNGrams(),
		ProfileVersion: snap.Version,
		Languages:      det.Languages(),
		Endpoints: map[string]EndpointSnapshot{
			"/detect":  s.detect.snapshot(),
			"/batch":   s.batch.snapshot(),
			"/stream":  s.stream.snapshot(),
			"/segment": s.segment.snapshot(),
			"/healthz": s.healthz.snapshot(),
			"/statsz":  s.statsz.snapshot(),
		},
	}
	if s.reg != nil {
		out.Endpoints["/admin/profiles"] = s.adminProfiles.snapshot()
		out.Endpoints["/admin/reload"] = s.adminReload.snapshot()
	}
	return out
}

// statusRecorder captures the response status for error counting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so /stream can push each
// result line as it is produced.
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the real writer for
// full-duplex control.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (s *Server) measure(st *endpointStats, method string, h func(http.ResponseWriter, *http.Request, *endpointStats)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st.requests.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if r.Method != method {
			rec.Header().Set("Allow", method)
			jsonError(rec, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires %s", r.URL.Path, method))
		} else {
			h(rec, r, st)
		}
		if rec.status >= 400 {
			st.errors.Add(1)
		}
		st.latencyNS.Add(time.Since(start).Nanoseconds())
	})
}

// Detection is one classified document, the unit of every response.
type Detection struct {
	// ID echoes the request document's id, when one was given.
	ID string `json:"id,omitempty"`
	// Language is the winning language code, or "" when the detection
	// is unknown (no n-grams, or below the confidence thresholds).
	Language string `json:"language"`
	// Name is the English language name, when known.
	Name string `json:"name,omitempty"`
	// NGrams is the number of n-grams tested.
	NGrams int `json:"ngrams"`
	// Count is the winner's raw match count.
	Count int `json:"count"`
	// Score is the normalized confidence Count/NGrams in [0,1].
	Score float64 `json:"score"`
	// Margin is the winner's normalized lead over the runner-up.
	Margin float64 `json:"margin"`
	// Unknown reports that no language cleared the confidence
	// thresholds; Language is "" and the numbers describe the would-be
	// winner.
	Unknown bool `json:"unknown,omitempty"`
	// Counts holds per-language match counts, when requested.
	Counts map[string]int `json:"counts,omitempty"`
	// Spans holds the document's mixed-language segmentation, when
	// requested (/stream with ?spans=1).
	Spans []SpanDetection `json:"spans,omitempty"`
	// Error reports a per-document failure on /stream.
	Error string `json:"error,omitempty"`
}

// SpanDetection is one contiguous single-language region in a
// segmentation response: the half-open byte range [start, end) of the
// request document and the language called for it.
type SpanDetection struct {
	// Start is the first byte of the span.
	Start int `json:"start"`
	// End is the byte after the last byte of the span.
	End int `json:"end"`
	// Language is the span's language code, or "" when unknown.
	Language string `json:"language"`
	// Name is the English language name, when known.
	Name string `json:"name,omitempty"`
	// Score is the mean windowed confidence over the span.
	Score float64 `json:"score"`
	// Margin is the mean windowed winner margin over the span.
	Margin float64 `json:"margin"`
	// Unknown reports that no language cleared the confidence
	// thresholds for this region.
	Unknown bool `json:"unknown,omitempty"`
}

// Segmentation is the /segment response: the document's span tiling
// under the server's segmentation geometry.
type Segmentation struct {
	// Bytes is the length of the segmented document.
	Bytes int `json:"bytes"`
	// Window and Stride echo the effective segmentation geometry in
	// n-grams, so clients can interpret boundary granularity.
	Window int `json:"window"`
	Stride int `json:"stride"`
	// Spans tile [0, Bytes) in order.
	Spans []SpanDetection `json:"spans"`
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	// One snapshot per request: a concurrent hot swap must not change
	// the detector under a request that already started.
	det := s.handle.Detector()
	sc := getScratch(len(det.Languages()))
	defer putScratch(sc)
	if err := s.readBody(w, r, sc); err != nil {
		httpReadError(w, err)
		return
	}
	st.bytes.Add(int64(len(sc.buf)))
	// /detect always reports per-language counts.
	m := det.DetectCounts(sc.buf, sc.counts)
	if m.NGrams == 0 {
		jsonError(w, http.StatusUnprocessableEntity, "document too short to classify")
		return
	}
	st.docs.Add(1)
	if m.Unknown {
		st.unknown.Add(1)
	}
	// The body is spent; the response reuses its buffer.
	sc.buf = append(appendDetection(sc.buf[:0], &detection{m: m, langs: det.Languages(), counts: sc.counts}), '\n')
	writeBody(w, sc.buf)
}

// bodyPresize caps the buffer a request body is first read into. A
// body's Content-Length is a claim the client makes before sending it,
// so the buffer starts at that claim only up to this cap and grows
// past it as bytes actually arrive. At the pool bound, a presized
// buffer stays poolable.
const bodyPresize = maxPooledBuf

// readBody reads the request body under the MaxBodyBytes limit into
// sc.buf, presized from Content-Length, so a typical document is read
// into the pooled buffer, or one allocation of its own size, rather
// than by repeated doubling. The MaxBytesReader error (413) and
// read-deadline errors (408) pass through unchanged for httpReadError.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *reqScratch) error {
	// One spare byte lets the read that reports EOF land without a
	// grow when the body is exactly Content-Length bytes.
	size := r.ContentLength + 1
	if r.ContentLength < 0 || size > bodyPresize {
		size = bodyPresize
	}
	buf := sc.buf[:0]
	if int64(cap(buf)) < size {
		buf = make([]byte, 0, size)
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.buf = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// handleSegment segments one raw document into contiguous
// single-language spans under the server's segmentation geometry —
// the mixed-language answer /detect cannot give. Like every endpoint
// it runs against one detector snapshot, so segmentation is stable
// across concurrent profile hot swaps.
func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	det := s.handle.Detector()
	sc := getScratch(0)
	defer putScratch(sc)
	if err := s.readBody(w, r, sc); err != nil {
		httpReadError(w, err)
		return
	}
	n := len(sc.buf)
	st.bytes.Add(int64(n))
	if n == 0 {
		jsonError(w, http.StatusUnprocessableEntity, "document is empty")
		return
	}
	var err error
	if sc.spans, err = det.AppendSpans(sc.spans[:0], sc.buf, s.cfg.Segment); err != nil {
		// New validates the geometry, so this is unreachable; answer
		// 500 rather than panic if that ever changes.
		jsonError(w, http.StatusInternalServerError, "segmentation misconfigured: "+err.Error())
		return
	}
	st.docs.Add(1)
	st.spans.Add(int64(len(sc.spans)))
	eff := s.cfg.Segment.WithDefaults()
	sc.buf = appendSegmentation(sc.buf[:0], n, eff.Window, eff.Stride, sc.spans)
	writeBody(w, sc.buf)
}

// batchDoc accepts either a bare JSON string or {"id": ..., "text": ...}.
type batchDoc struct {
	ID   string
	Text string
}

func (d *batchDoc) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &d.Text)
	}
	var obj struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	if err := json.Unmarshal(data, &obj); err != nil {
		return err
	}
	d.ID, d.Text = obj.ID, obj.Text
	return nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	det := s.handle.Detector()
	sc := getScratch(0)
	defer putScratch(sc)
	if err := s.readBody(w, r, sc); err != nil {
		httpReadError(w, err)
		return
	}
	var reqDocs []batchDoc
	if err := json.Unmarshal(sc.buf, &reqDocs); err != nil {
		jsonError(w, http.StatusBadRequest, "body must be a JSON array of documents: "+err.Error())
		return
	}
	if len(reqDocs) > s.cfg.MaxBatchDocs {
		jsonError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d documents exceeds limit %d", len(reqDocs), s.cfg.MaxBatchDocs))
		return
	}
	docs := make([]corpus.Document, len(reqDocs))
	var bytes int64
	for i, d := range reqDocs {
		docs[i].Text = []byte(d.Text)
		bytes += int64(len(d.Text))
	}
	st.bytes.Add(bytes)
	st.docs.Add(int64(len(docs)))
	var counts []int
	langs := det.Languages()
	if s.cfg.IncludeCounts {
		counts = make([]int, len(docs)*len(langs))
	}
	// The documents were copied out of the body, so the response reuses
	// its buffer.
	b := append(sc.buf[:0], '[')
	for i, m := range det.DetectBatchCounts(docs, counts) {
		d := detection{id: reqDocs[i].ID, m: m, langs: langs}
		if counts != nil {
			d.counts = counts[i*len(langs) : (i+1)*len(langs)]
		}
		if m.Unknown {
			st.unknown.Add(1)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendDetection(b, &d)
	}
	sc.buf = append(b, "]\n"...)
	writeBody(w, sc.buf)
}

// handleStream reads NDJSON documents (one JSON string or {id, text}
// object per line) and writes one NDJSON Detection per line, flushed as
// produced. The whole exchange uses bounded memory regardless of how
// many documents flow through: one line buffer, one core.Stream reset
// at each document boundary — the software mirror of the
// hardware's End-of-Document marker in the DMA stream (§3.3). The
// stream keeps its request-start detector for its whole life, even
// across hot swaps. With ?spans=1 every result line also carries the
// document's mixed-language segmentation, produced by one SpanStream
// reset per document; the stream's running totals double as the
// document-level detection, so spans mode still extracts and hashes
// each n-gram exactly once and makes no per-line copies.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	det := s.handle.Detector()
	var spanStream *core.SpanStream
	if queryFlag(r, "spans") {
		var err error
		if spanStream, err = det.NewSpanStream(s.cfg.Segment); err != nil {
			// New validates the geometry, so this is unreachable; answer
			// 500 rather than panic if that ever changes.
			jsonError(w, http.StatusInternalServerError, "segmentation misconfigured: "+err.Error())
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Result lines go out while request lines are still coming in; for
	// HTTP/1 the server would otherwise cut off the request body at the
	// first flush.
	http.NewResponseController(w).EnableFullDuplex()
	flusher, _ := w.(http.Flusher)
	var ds *core.Stream
	if spanStream == nil {
		ds = det.NewStream()
	}
	// sc.counts receives each line's per-language counts; they go on the
	// wire only when IncludeCounts asks for them. sc.buf holds the
	// result line being written.
	langs := det.Languages()
	sc := getScratch(len(langs))
	defer putScratch(sc)
	var wireCounts []int
	if s.cfg.IncludeCounts {
		wireCounts = sc.counts
	}
	writeLine := func(d *detection) {
		sc.buf = append(appendDetection(sc.buf[:0], d), '\n')
		w.Write(sc.buf)
	}
	lines := bufio.NewScanner(r.Body)
	// Scanner's effective cap is max(cap(buf), max), so the initial
	// buffer must not exceed the configured line limit.
	bufCap := 64 << 10
	if s.cfg.MaxLineBytes < bufCap {
		bufCap = s.cfg.MaxLineBytes
	}
	lines.Buffer(make([]byte, 0, bufCap), s.cfg.MaxLineBytes)
	for lines.Scan() {
		line := lines.Bytes()
		if len(line) == 0 {
			continue
		}
		var doc batchDoc
		if err := json.Unmarshal(line, &doc); err != nil {
			writeLine(&detection{err: "bad document line: " + err.Error()})
			continue
		}
		st.bytes.Add(int64(len(doc.Text)))
		st.docs.Add(1)
		d := detection{id: doc.ID, langs: langs, counts: wireCounts}
		if spanStream != nil {
			spanStream.Reset()
			io.WriteString(spanStream, doc.Text)
			d.spans = spanStream.Finish()
			d.m = spanStream.MatchCounts(sc.counts)
			st.spans.Add(int64(len(d.spans)))
		} else {
			ds.Reset()
			io.WriteString(ds, doc.Text)
			d.m = ds.MatchCounts(sc.counts)
		}
		if d.m.Unknown {
			st.unknown.Add(1)
		}
		writeLine(&d)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := lines.Err(); err != nil {
		// Headers are long gone; report the failure in-band and stop.
		msg := err.Error()
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("document line exceeds %d bytes", s.cfg.MaxLineBytes)
		}
		writeLine(&detection{err: msg})
		drainBody(w, r.Body)
	}
}

// streamDrainBytes bounds how much of an abandoned /stream body the
// handler reads and discards before it gives the connection up.
const streamDrainBytes = 1 << 20

// drainBody discards what is left of a full-duplex request body that
// the handler stops reading early. net/http (go1.24) would discard it
// only after the handler returns, and when that discard reaches EOF it
// starts a background read that collides with the server's read of the
// next request ("invalid concurrent Body.Read call"), so the handler
// reads to EOF itself. A remainder over streamDrainBytes trips a
// MaxBytesReader on the server's own ResponseWriter, which marks the
// connection to close after this response instead.
func drainBody(w http.ResponseWriter, body io.ReadCloser) {
	for {
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			break
		}
		w = u.Unwrap()
	}
	io.Copy(io.Discard, http.MaxBytesReader(w, body, streamDrainBytes))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	writeJSON(w, s.Stats())
}

// ProfilesStatus is the /admin/profiles payload.
type ProfilesStatus struct {
	// Serving is the version the handle serves right now.
	Serving string `json:"serving"`
	// Active is the registry's active version — it differs from
	// Serving between an Activate and the next reload.
	Active string `json:"active,omitempty"`
	// Versions lists every version manifest in ascending order.
	Versions []*registry.Manifest `json:"versions"`
}

func (s *Server) handleAdminProfiles(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	versions, err := s.reg.List()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	active, err := s.reg.ActiveVersion()
	if err != nil && !errors.Is(err, registry.ErrNoActive) {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, ProfilesStatus{
		Serving:  s.handle.Version(),
		Active:   active,
		Versions: versions,
	})
}

func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	status, err := s.Reload()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, status)
}

// queryFlag reports whether a boolean query parameter is set truthy
// ("1", "true", "t", ...).
func queryFlag(r *http.Request, name string) bool {
	v, err := strconv.ParseBool(r.URL.Query().Get(name))
	return err == nil && v
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeBody sends one JSON response encoded by the appenders.
func writeBody(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// jsonError writes the JSON error envelope {"error": msg, "status":
// status} every failed request is answered with.
func jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	sc := getScratch(0)
	sc.buf = appendError(sc.buf[:0], msg, status)
	w.Write(sc.buf)
	putScratch(sc)
}

// httpReadError maps body-read failures to statuses: the MaxBytesReader
// limit becomes 413, a tripped read deadline (Config.ReadTimeout)
// becomes 408, everything else 400.
func httpReadError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		jsonError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	var netErr net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &netErr) && netErr.Timeout()) {
		jsonError(w, http.StatusRequestTimeout, "timed out reading request body")
		return
	}
	jsonError(w, http.StatusBadRequest, err.Error())
}
