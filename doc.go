// Package bloomlang is a pure-Go reproduction of "Language
// Classification using N-grams Accelerated by FPGA-based Bloom Filters"
// (Jacob & Gokhale, HPRCTA'07): n-gram language classification with
// Parallel Bloom Filter membership testing, together with a
// cycle-accounted simulation of the XtremeData XD1000 hardware platform
// the paper deployed on and the two baselines it compares against
// (the HAIL FPGA design and Mguesser-style Cavnar-Trenkle software).
//
// # Quick start
//
// Detector is the single entry point for classification: train (or
// load) profiles, build a detector, detect.
//
//	corp, _ := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
//		DocsPerLanguage: 100, WordsPerDoc: 400, TrainFraction: 0.1, Seed: 1,
//	})
//	profiles, _ := bloomlang.Train(bloomlang.DefaultConfig(), corp)
//	det, _ := bloomlang.NewDetector(profiles)
//	m := det.Detect([]byte("el reglamento del consejo sobre la política agrícola"))
//	fmt.Println(m.Lang, m.Score, m.Margin) // "es 0.87 0.45"
//
// Every Match carries the winning language, the raw match count, the
// normalized confidence score (Count/NGrams), and the §5.1 winner
// margin — the quantity whose size over the Bloom false-positive noise
// is why the paper's filters barely cost accuracy. Documents that
// cannot be called confidently come back with Unknown set instead of a
// silently tie-broken guess:
//
//	det, _ := bloomlang.NewDetector(profiles,
//		bloomlang.WithBackend(bloomlang.BackendBloom), // or direct / classic
//		bloomlang.WithWorkers(8),                      // DetectBatch fan-out
//		bloomlang.WithMinMargin(0.02),                 // ties and near-ties -> Unknown
//		bloomlang.WithMinNGrams(8),                    // short docs -> Unknown
//	)
//
// Beyond one-shot Detect, the detector ranks candidates, fans out over
// batches, and consumes streams:
//
//	ranked := det.Rank(doc, 3)                  // top-3 languages by match count
//	matches := det.DetectBatch(docs)            // worker-pool, input order kept
//	m, err := det.DetectReader(file)            // bounded memory
//	st := det.NewStream()                       // incremental: Write chunks, then
//	st.Write(chunk); m = st.Match()             // read the running decision
//
// The single-document hot path reuses per-call scratch from an internal
// pool, so a warm Detect performs zero heap allocations (see
// BenchmarkDetector).
//
// # Counting pipeline
//
// Every counting entry point — Detect, DetectCounts, Rank, DetectBatch,
// DetectReader, and Stream and SpanStream writes ([]byte or string) —
// runs the document through one chunked pass,
// the software form of the paper's datapath (§3.3), which tests an
// n-gram at each character position and never buffers a document:
//
//	raw bytes ──▶ folded translate+extract ──▶ ≤255-gram chunk ──▶ kernel ──▶ vertical counter
//	              (256-entry table feeding       (fixed buffer)     (one L-bit    (per-language
//	               the n-gram window)                                hit mask      counts)
//	                                                                 per n-gram)
//
// The extractor carries its window across chunks and writes, so any
// chunking of a document yields the same counts. Per-call scratch is
// one chunk of n-grams plus the per-language counters (about 1 KiB),
// whatever the document size.
//
// # Membership backends
//
// The membership structure is an open registry. Four ship built in:
// the paper's Parallel Bloom Filter ("parallel-bloom"/"bloom"), HAIL's
// exact direct lookup ("direct-lookup"/"direct"), a classic
// single-vector Bloom filter ("classic-bloom"/"classic"), and a fused
// cache-line-blocked Bloom filter ("blocked-bloom"/"blocked").
// ParseBackend resolves any registered name or alias (the CLIs' -backend
// flag is exactly this), Backend.String round-trips it back, and
// RegisterBackend plugs in new implementations. Every backend is a
// Kernel that scores all languages for a run of n-grams in one call;
// the builder receives the whole profile set:
//
//	type myKernel struct{ ... }
//	func (k *myKernel) AccumulateInto(counts []int, gs []uint32) { ... } // += per-language hits, no allocation
//	func (k *myKernel) Test(lang int, g uint32) bool            { ... } // one language, one n-gram
//
//	mine := bloomlang.RegisterBackend("my-backend",
//		func(cfg bloomlang.Config, ps *bloomlang.ProfileSet) (bloomlang.Kernel, error) {
//			return newMyKernel(cfg, ps.Profiles)
//		}, "mine")
//	det, _ := bloomlang.NewDetector(profiles, bloomlang.WithBackend(mine))
//
// The blocked backend is the software analogue of the paper's
// one-clock membership test. The hardware reads its k bit-vector RAMs
// once per n-gram and tests every language classifier in the same
// clock (§3.1, Figure 1). The blocked filter does the same with
// bit-sliced language lanes: the first H3 hash selects one 512-bit
// block, the remaining k−1 hashes select bits inside it, and for each
// (block, bit) position the filters of all L languages are stored as
// one L-bit lane word (8, 16, 32 or 64 bits, L rounded up) whose bit l
// is language l's filter bit:
//
//	              bit 0    bit 1          bit 511
//	block 0     [L bits] [L bits] ... [L bits]
//	block 1     [L bits] [L bits] ... [L bits]
//	...
//	block B-1   [L bits] [L bits] ... [L bits]
//
//	n-gram g:  one folded H3 lookup (4 byte-table reads) yields
//	           h0(g), the block row, and h1..h(k-1)(g), the probe bits;
//	           the AND of those k−1 lane words is g's L-bit hit mask —
//	           bit l set iff language l's filter accepts g;
//	           a byte-lane vertical counter adds the masks into the
//	           per-language counts (AccumulateInto).
//
// The direct backend scores the same way over exact membership: a
// union bitset over the packed n-gram space, a rank directory, and one
// L-bit language mask per distinct profile n-gram (~280 KB at N=4 and
// L=10). Both fused kernels hold at most 64 languages; construction
// fails above that with an error naming parallel-bloom, which has no
// such limit. The serialized blocked layout (NGBK, embedded in NGPS v2
// profile files) stays block-major — language by language, eight
// 64-bit words per block — and is transposed to lanes on read and back
// on write, so files are byte-identical across the layout change.
//
// Per-language filters are sized (power-of-two block count) so the
// modelled false-positive rate at full profile load is no worse than
// the parallel backend's §3.1 model under the same Config. Prefer
// "blocked" or "direct" for software serving throughput: "direct" is
// exact and the fastest per n-gram, "blocked" keeps the paper's Bloom
// filter semantics in about as little memory. Prefer "bloom" when
// simulated-hardware and software classifications must share filter
// state bit-for-bit (the XD1000 simulator borrows the parallel
// filters) or for more than 64 languages; "classic" exists as an
// ablation. SaveProfilesBlocked embeds the programmed blocked layout
// in the profile file (NGPS v2), so a daemon serving "blocked" skips
// filter programming at startup; v1 files and legacy NGPF streams
// remain readable, and damaged files fail with errors tagged
// ErrCorruptProfiles.
//
// # Segmentation
//
// Real traffic is full of mixed-language documents — quoted replies,
// code-switched chat, bilingual pages — where one label is simply
// wrong. DetectSpans answers with a tiling of contiguous
// single-language spans instead:
//
//	spans, _ := det.DetectSpans(doc, bloomlang.SegmentConfig{})
//	for _, sp := range spans {
//		fmt.Printf("[%d,%d) %s score %.2f\n", sp.Start, sp.End, sp.Lang, sp.Score)
//	}
//
// The mechanism reuses the match-counting inner loop unchanged and
// runs it exactly once per document: the n-gram stream is cut into
// Stride-sized chunks, one pass of the backend's kernel adds each
// chunk's per-language counts to the document totals, and a sliding
// window of Window n-grams is those totals minus the totals of
// Window/Stride chunks ago, kept in a ring. Per stride that is one
// kernel call and one pass over the languages, which reads the window,
// picks its best and runner-up on the integer counts without a branch
// per language (Smoothing 0, the default; a smoothed window decides on
// floats) and stores the new ring row. No n-gram is ever re-extracted
// or re-hashed for a second window. On a paper-sized document
// segmenting costs about 1.75× one Detect on the blocked and
// direct-lookup backends, the rest being the per-stride kernel call
// and window step, at 0 allocs/op warm (AppendSpans with a reused
// destination; see BenchmarkDetectSpans).
//
// Window arg-max decisions pass through hysteresis before a boundary
// is believed: a new language must win Hysteresis consecutive windows,
// and interrupted challenges fold back into the incumbent, so one
// noisy window never fragments a span. Boundaries are attributed to
// the center of the first window that voted for the new language and
// land within about one stride of the decision flip. Optional
// Smoothing (an EWMA over window counts) further steadies boundaries
// on choppy text. Windows that fail the detector's MinMargin /
// MinNGrams policy become explicit Unknown spans. The returned spans
// always tile [0, len(doc)) with no gaps or overlaps; a document
// shorter than one window is decided whole, exactly as Detect decides
// it.
//
// All four backends segment; geometry is per call:
//
//	SegmentConfig{Window: 96, Stride: 24}  // finer boundaries: smaller Stride
//	SegmentConfig{Hysteresis: 3}           // calmer boundaries: more persistence
//	SegmentConfig{Smoothing: 0.5}          // steadier arg-max on choppy text
//
// Streaming and reader variants mirror the detection paths —
// DetectSpansReader for bounded-memory files, NewSpanStream for
// incremental feeds (Write chunks in any splits; Spans returns the
// boundaries finalized so far, Finish closes the document; identical
// output to one-shot for identical bytes):
//
//	st, _ := det.NewSpanStream(bloomlang.SegmentConfig{})
//	st.Write(chunk)
//	done := st.Spans()     // finalized so far
//	all := st.Finish()     // the complete tiling
//
// The segmentation quality gate lives in testdata/golden_segments.json:
// deterministic mixed-language documents with known boundaries
// (cmd/corpusgen -mixed writes the same ground truth to disk) and
// per-language byte-F1 floors every backend must clear. From the
// command line, langid segment prints, tabulates (-tsv) or colors
// (-color) a file's spans; over HTTP, POST /segment returns the span
// tiling and /stream?spans=1 attaches spans to every NDJSON result.
//
// # Architecture
//
// The library is organized as the paper's system is:
//
//   - alphabet conversion (8-bit extended ASCII to 5-bit codes),
//   - n-gram extraction and top-t profile training,
//   - H3-hashed Parallel Bloom Filters (one per language),
//   - the Detector: multi-language match counting with ranked results,
//     confidence thresholding, batch (goroutine-parallel) and stream
//     execution paths,
//   - the XD1000 system model: HyperTransport link, DMA, command
//     protocol, watchdog, and synchronous/asynchronous host drivers,
//   - baselines: HAIL (direct SRAM lookup) and Cavnar-Trenkle rank
//     ordering.
//
// Every table and figure of the paper's evaluation can be regenerated;
// see the Run* experiment functions and cmd/experiments.
//
// # Profile lifecycle
//
// Training, versioning, activation and serving are decoupled, the way
// the paper's deployment separates offline profile construction from
// the hardware that serves them (§2). The streaming trainer ingests
// documents incrementally — whole documents, io.Readers, NDJSON
// streams, or corpus directory trees — and counts n-grams across
// sharded, mergeable accumulators, so a training corpus never has to
// fit in memory; its output is byte-identical to Train on the same
// documents:
//
//	tr, _ := bloomlang.NewTrainer(bloomlang.DefaultConfig(), bloomlang.WithShards(4))
//	tr.Add("es", doc)                       // one document at a time
//	tr.AddReader("en", file)                // streamed, chunk by chunk
//	tr.AddNDJSON(r)                         // {"lang": "es", "text": "..."} lines
//	tr.AddDir("corpus")                     // corpusgen layout, file by file
//	profiles, stats, _ := tr.Finalize()
//
// Trained profiles become immutable, checksummed versions in an
// on-disk registry; exactly one version is active at a time, and the
// rollback history makes bad rollouts reversible:
//
//	reg, _ := bloomlang.OpenRegistry("/var/lib/langid")
//	m, _ := reg.Create(profiles, stats)     // -> v000007, not yet live
//	reg.Activate(m.Version)                 // CURRENT -> v000007
//	reg.Rollback()                          // back to the previous version
//	reg.GC(3)                               // drop old inactive versions
//
// The same lifecycle from the command line, end to end:
//
//	langid train -corpus corpusdir -registry /var/lib/langid -activate
//	langid profiles -registry /var/lib/langid            # list versions
//	langidd -registry /var/lib/langid -addr :8080        # serve the active version
//	langid train -ndjson fresh.ndjson -registry /var/lib/langid -activate
//	curl -X POST :8080/admin/reload                      # hot-swap, zero downtime
//	langid profiles -registry /var/lib/langid -rollback  # then reload again
//
// A running server reaches its detector through a hot-swap handle (an
// atomic pointer to an immutable (detector, version) snapshot), so
// Reload — triggered by SIGHUP or POST /admin/reload — is
// zero-downtime: requests in flight finish on the detector they
// started with, requests arriving after the swap see the new version,
// and no request ever blocks or observes a torn state.
//
// # Serving
//
// The serving subsystem (internal/serve, re-exported as NewServer /
// NewServerFromRegistry) routes all endpoints through the current
// detector snapshot. Responses carry the score/margin/unknown fields;
// /statsz counts unknown-classified documents separately per endpoint
// and names the serving profile version; failed requests are answered
// with a JSON error body ({"error": ..., "status": ...}) — 413 for
// oversized bodies, 408 for request-body read timeouts:
//
//	POST /detect          one raw document        -> one JSON detection
//	POST /batch           JSON array of documents -> array of detections,
//	                      fanned out over the detector's workers, input
//	                      order preserved
//	POST /stream          NDJSON documents        -> NDJSON detections,
//	                      classified incrementally with bounded memory,
//	                      one result line flushed per input line
//	                      (?spans=1 adds each document's span tiling)
//	POST /segment         one raw document        -> its mixed-language
//	                      span tiling (window/stride geometry from
//	                      ServeConfig.Segment), spans counted on /statsz
//	GET  /healthz         liveness probe
//	GET  /statsz          request/byte/latency/unknown counters + version
//	GET  /admin/profiles  registry versions, serving vs active version
//	POST /admin/reload    hot-swap to the registry's active version
//
// The admin endpoints exist only on registry-backed servers and carry
// no authentication; deployments should expose /admin to operators
// only. Flat profile files remain supported for simple setups:
// SaveProfiles/LoadProfiles round-trip a ProfileSet (configuration
// included), so a restart costs a file read instead of a training run:
//
//	profiles, _ := bloomlang.LoadProfiles("profiles.bin")
//	srv, _ := bloomlang.NewServer(profiles, bloomlang.ServeConfig{MinMargin: 0.02})
//	http.ListenAndServe(":8080", srv.Handler())
//
// Responses on /detect, /batch, /stream and /segment, and every error
// envelope, are appended by hand into a pooled per-request buffer that
// first holds the request body, instead of going through
// encoding/json's reflection: spans are written straight from the
// core.Span values and counts from the counts row in language order,
// with no per-request map. The bytes match encoding/json's for the
// public Detection, Segmentation and error types exactly (HTML
// escaping included); FuzzResponseEncoding holds the appender to it.
// /statsz and /admin/* still use encoding/json.
//
// cmd/langidd is the production daemon around this handler: flags for
// address, backend, worker pool, confidence thresholds (-min-margin,
// -min-ngrams), body/batch/line limits and read/write/idle timeouts,
// profile sources (-registry, -profiles, -corpus, -synthetic, with
// -save), SIGHUP hot reload, and graceful drain on SIGINT/SIGTERM.
// examples/server walks the full serving surface, admin plane
// included, in one self-contained program.
//
// # Removed names
//
// Detector is the one detection API and Kernel the one backend
// contract. The older entry points are gone; each maps onto the
// current API like so:
//
//	NewClassifier(ps, b)          -> NewDetector(ps, WithBackend(b))
//	Classifier.Classify(doc)      -> Detector.Detect(doc), or DetectCounts(doc, counts) for raw counts
//	NewEngine(clf, n)             -> NewDetector(ps, WithWorkers(n))
//	Engine.ClassifyAll(docs)      -> Detector.DetectBatch(docs), or DetectBatchCounts(docs, counts)
//	Engine.Evaluate(corp)         -> Evaluate(det, corp)
//	Engine.Measure(docs)          -> Measure(det, docs)
//	NewDocumentStream(clf)        -> Detector.NewStream()
//	DocumentStream.Result()       -> Stream.MatchCounts(counts)
//	SpanStream.Result()           -> SpanStream.MatchCounts(counts)
//	Detector.MatchResult(r)       -> Detect or DetectCounts on the document
//	NewServerFromClassifier(c, o) -> NewServer(ps, o)
//	Matcher, BackendBuilder       -> Kernel and a func(Config, *ProfileSet) (Kernel, error) builder
//	RegisterFusedBackend          -> RegisterBackend
//
// (*Detector).Classifier remains for counter-level work on
// pre-extracted n-grams (ClassifyGrams, returning a Result) and for
// Filter, through which the XD1000, RTL and VHDL simulators borrow the
// parallel-bloom filters, so hardware-simulated and software
// classifications still agree bit-for-bit.
package bloomlang
