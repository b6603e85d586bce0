// Command perfbench is the repository benchmark. It trains profiles
// from a seeded synthetic corpus, starts a real langidd on loopback,
// and drives it with closed-loop keep-alive clients, one per
// connection and at most one per CPU, checking every answer against
// the same detector run in-process. With -trace 1 it also replays the
// same documents in-process through each layer's public entry point
// and reports per-layer metrics from the recorded spans.
//
// Usage, from the repository root (perfbench/run.sh builds both
// binaries first):
//
//	perfbench -langidd BIN -workload detect-long -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"bloomlang/internal/core"
)

const (
	setupWarm = 2               // unmeasured set-ups first: the first two of a process run slow
	setupReps = 9               // measured set-ups per run; setup_s is their median
	warmup    = time.Second     // unmeasured load before the measured phase
	mb        = 1e6             // MB/s counts 10^6 bytes, as the paper's §5.4 does
	minPhase  = 2 * time.Second // shortest measured phase
)

func main() {
	name := flag.String("workload", "", "workload: detect-long, stream-short or segment-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 replays the inputs in-process with per-layer spans")
	bin := flag.String("langidd", "", "langidd binary to benchmark")
	workdir := flag.String("workdir", ".bench_build/run", "directory for profiles, logs and traces")
	flag.Parse()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(2)
	}()
	err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *workdir)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds time.Duration, traced bool, bin, workdir string) error {
	if bin == "" {
		return errors.New("-langidd is required")
	}
	if seconds < minPhase {
		return fmt.Errorf("-seconds must be at least %v", minPhase)
	}
	// Generator discipline: no more OS threads running Go code and no
	// more connections than the machine has CPUs.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	if runtime.GOMAXPROCS(0) > nproc {
		return fmt.Errorf("GOMAXPROCS cap exceeded: %d > %d CPUs", runtime.GOMAXPROCS(0), nproc)
	}
	nClients := nproc

	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	dir := filepath.Join(workdir, fmt.Sprintf("%s-seed%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	profiles := filepath.Join(dir, "profiles.bin")

	// Set-up: train and save the profiles, exec langidd, wait for the
	// first healthy answer. Repeated, keeping the last daemon.
	var trainS, readyS, setupS []float64
	var d *daemon
	for rep := -setupWarm; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		t0 := time.Now()
		if err := trainProfiles(w, profiles); err != nil {
			return fmt.Errorf("training: %w", err)
		}
		t1 := time.Now()
		if d, err = startDaemon(profiles, w.backend, filepath.Join(dir, "langidd.log"), bin); err != nil {
			return err
		}
		t2 := time.Now()
		if rep < 0 {
			continue
		}
		trainS = append(trainS, t1.Sub(t0).Seconds())
		readyS = append(readyS, t2.Sub(t1).Seconds())
		setupS = append(setupS, t2.Sub(t0).Seconds())
	}
	defer d.stop()

	// The reference detector loads the very file langidd serves.
	ps, err := core.LoadProfileSetFile(profiles)
	if err != nil {
		return err
	}
	backend, err := core.ParseBackend(w.backend)
	if err != nil {
		return err
	}
	det, err := core.NewDetector(ps, core.WithBackend(backend))
	if err != nil {
		return err
	}
	ref, err := newReference(w, det)
	if err != nil {
		return err
	}

	measure := seconds
	if traced {
		measure = seconds / 2
	}
	runtime.GC()
	load, loadErr := runLoad(w, ref, d.addr, nClients, nproc, warmup, measure)
	rss, err := d.rssPeakMiB()
	if err != nil {
		return err
	}
	d.stop()

	res := result{Correct: loadErr == nil, Metrics: map[string]metric{}}
	var samples []sample
	checkers := make([]*checker, 0, len(load.clients))
	for _, c := range load.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		samples = append(samples, c.samples...)
		checkers = append(checkers, c.chk)
		for _, err := range c.errs {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
		}
	}
	if loadErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", loadErr)
	}
	st := summarize(samples, load.steal, measure)
	accuracy, spanF1 := quality(w.docs, checkers)
	fmt.Printf("workload %s seed %d: %d clients, %d connections, %v measured\n", name, seed, nClients, load.dials, measure)
	fmt.Printf("%.1f%% of the machine's CPU time stolen; latencies from %d of %d slices of %v: %d samples, p99 %.4g ms\n",
		100*load.stolen, st.kept, st.slices, sliceWidth, st.samples, st.p99)

	if traced {
		rp, err := newReplayer(w, ps, det, ref)
		if err != nil {
			return err
		}
		tr := &tracer{epoch: time.Now()}
		runtime.GC()
		rp.run(seconds-measure, tr)
		// One trace per workload is kept; the next traced run replaces it.
		if err := tr.write(filepath.Join(workdir, "trace-"+name+".ndjson")); err != nil {
			return err
		}
		res.Attempted += rp.attempted
		res.Failed += rp.failed
		for _, err := range rp.errs {
			fmt.Fprintln(os.Stderr, "perfbench: in-process replay failed:", err)
		}
		if rp.docs == 0 {
			return errors.New("replay processed no documents")
		}
		fmt.Printf("replay: %d documents, %d spans kept, %d more tallied\n", rp.docs, len(tr.spans), tr.dropped)
		res.Metrics = layerMetrics(w, rp, st.p50, median(trainS), median(readyS), load.cpuShare)
	} else {
		put := func(k string, v float64, unit string) { res.Metrics[k] = metric{v, unit} }
		put("docs_per_s", st.docsPerS, "1/s")
		put("mb_per_s", st.mbPerS, "MB/s")
		put("latency_p50_ms", st.p50, "ms")
		put("accuracy", accuracy, "ratio")
		put("span_f1", spanF1, "ratio")
		put("server_rss_peak_mib", rss, "MiB")
		put("setup_s", median(setupS), "s")
	}
	if res.Attempted > 0 {
		fmt.Printf("error_rate %.6g ratio (%d of %d failed)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	res.Correct = res.Correct && res.Failed == 0 && res.Attempted > 0
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Printf("%-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// layerMetrics turns the replay's spans into the per-layer metrics.
func layerMetrics(w *workload, rp *replayer, clientP50ms, trainS, readyS, cpuShare float64) map[string]metric {
	m := map[string]metric{}
	put := func(k string, v float64, unit string) { m[k] = metric{v, unit} }
	lt := func(name string) *layerTotals {
		if t := rp.totals[name]; t != nil {
			return t
		}
		return &layerTotals{}
	}
	docs, bytes, grams := float64(rp.docs), float64(rp.docBytes), float64(rp.ngrams)
	ns := func(name string) float64 { return float64(lt(name).busy.Nanoseconds()) }
	us := func(name string) float64 { return ns(name) / 1e3 / docs }

	put("alphabet.translate_ns_per_byte", ns(spanTranslate)/bytes, "ns/B")
	put("ngram.extract_ns_per_byte", ns(spanExtract)/bytes, "ns/B")
	put("ngram.ngrams_per_doc", grams/docs, "count")
	put("h3.hashall_ns_per_ngram", ns(spanHash)/grams, "ns")
	put("core.count_ns_per_ngram", ns(spanCount)/grams, "ns")
	put("core.detect_ns_per_byte", ns(spanDetect)/bytes, "ns/B")
	put("core.detect_allocs_per_doc", float64(lt(spanDetect).allocs)/docs, "count")
	put("core.segment_ns_per_byte", ns(spanSegment)/bytes, "ns/B")
	put("core.segment_allocs_per_doc", float64(lt(spanSegment).allocs)/docs, "count")
	put("core.spans_per_doc", float64(rp.spanCount)/docs, "count")
	put("serve.handler_us_per_doc", us(spanHandler), "us")
	put("serve.handler_bytes_per_doc", float64(lt(spanHandler).bytes)/docs, "B")
	put("serve.handler_allocs_per_doc", float64(lt(spanHandler).allocs)/docs, "count")

	// The core total is the one call the handler's request makes into
	// core; the stages are the layers that call is made of.
	core, stages := spanDetect, []string{spanTranslate, spanExtract, spanCount}
	if w.endpoint == "/segment" {
		core, stages = spanSegment, []string{spanSegment}
	}
	put("serve.overhead_us_per_doc", us(spanHandler)-us(core), "us")
	handlerDurs := lt(spanHandler).durs
	hs := make([]float64, len(handlerDurs))
	for i, d := range handlerDurs {
		hs[i] = float64(d) / float64(time.Microsecond)
	}
	slices.Sort(hs)
	put("serve.transport_us_per_doc", clientP50ms*1e3-quantile(hs, 0.5), "us")
	put("train.train_s", trainS, "s")
	put("serve.ready_s", readyS, "s")
	put("loadgen.cpu_share", cpuShare, "ratio")
	var staged float64
	for _, s := range stages {
		staged += ns(s)
	}
	put("trace.unattributed_share", 1-staged/ns(spanHandler), "ratio")
	put("trace.overhead_share", float64(rp.traced)/float64(rp.untraced)-1, "ratio")
	return m
}
