package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/serve"
)

// paperDoc concatenates held-out documents of one language into a
// document of n bytes, about the paper's ~1300-word document.
func paperDoc(t testing.TB, lang string, n int) []byte {
	t.Helper()
	corp, _ := fixtures(t)
	var doc []byte
	for _, d := range corp.Test[lang] {
		doc = append(append(doc, d.Text...), ' ')
		if len(doc) >= n {
			return doc[:n]
		}
	}
	t.Fatalf("%s test split holds fewer than %d bytes", lang, n)
	return nil
}

// bytesPerRequest serves n in-process requests built by req and
// returns the mean heap bytes allocated per request.
func bytesPerRequest(t *testing.T, h http.Handler, n int, req func() *http.Request) float64 {
	t.Helper()
	serveOne := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req())
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	for i := 0; i < 10; i++ {
		serveOne() // warm the detector's scratch pool
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		serveOne()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestDetectBytesPerRequestBounded pins /detect's per-request garbage
// to a small multiple of the body: the body is read into one buffer
// presized from Content-Length, and detection runs on the detector's
// pooled scratch. A Content-Length that claims far more than arrives
// must not make the server allocate the claim.
func TestDetectBytesPerRequestBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; CI runs this test again without -race")
	}
	_, ps := fixtures(t)
	srv, err := serve.New(ps, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	doc := paperDoc(t, "en", 6800)
	honest := bytesPerRequest(t, h, 100, func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(doc))
	})
	lying := bytesPerRequest(t, h, 20, func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/detect", bytes.NewReader(doc))
		r.ContentLength = 10 << 20 // the default MaxBodyBytes
		return r
	})
	t.Logf("/detect: %.0f B per %d-byte request; %.0f B with an inflated Content-Length", honest, len(doc), lying)
	if limit := 3 * float64(len(doc)); honest > limit {
		t.Errorf("/detect allocates %.0f B per %d-byte request, want < %.0f", honest, len(doc), limit)
	}
	if limit := float64(256 << 10); lying > limit {
		t.Errorf("/detect with an inflated Content-Length allocates %.0f B per request, want < %.0f", lying, limit)
	}
}

// TestSegmentBytesPerRequestBounded pins /segment's per-request
// garbage the same way: the body and the response share the request's
// pooled buffer, segmentation runs on the detector's pooled span
// stream into a pooled span slice, and the response is appended by
// hand, so what is left is the request plumbing itself. A
// Content-Length that claims far more than arrives must not make the
// server allocate the claim.
func TestSegmentBytesPerRequestBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; CI runs this test again without -race")
	}
	_, ps := fixtures(t)
	srv, err := serve.New(ps, serve.Config{Backend: core.BackendDirect})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var doc []byte
	for _, lang := range []string{"en", "fi", "es"} {
		doc = append(doc, paperDoc(t, lang, 300)...)
	}
	honest := bytesPerRequest(t, h, 100, func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/segment", bytes.NewReader(doc))
	})
	lying := bytesPerRequest(t, h, 20, func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/segment", bytes.NewReader(doc))
		r.ContentLength = 10 << 20 // the default MaxBodyBytes
		return r
	})
	// A /healthz request through the same harness is the plumbing
	// (request, recorder, headers) every request pays.
	plumbing := bytesPerRequest(t, h, 100, func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "/healthz", nil)
	})
	t.Logf("/segment: %.0f B per %d-byte request (/healthz %.0f B); %.0f B with an inflated Content-Length", honest, len(doc), plumbing, lying)
	if limit := plumbing + float64(len(doc)); honest > limit {
		t.Errorf("/segment allocates %.0f B per %d-byte request, want < %.0f (/healthz plus the body size)", honest, len(doc), limit)
	}
	if limit := float64(256 << 10); lying > limit {
		t.Errorf("/segment with an inflated Content-Length allocates %.0f B per request, want < %.0f", lying, limit)
	}
}

// TestBodyLimitBoundary checks the 413 mapping sits exactly at
// MaxBodyBytes on the presized read path: a body of the limit is read,
// one byte more is refused.
func TestBodyLimitBoundary(t *testing.T) {
	const limit = 4096
	ts, _ := newTestServer(t, serve.Config{MaxBodyBytes: limit})
	doc := paperDoc(t, "en", limit+1)
	for _, path := range []string{"/detect", "/segment"} {
		for _, tc := range []struct {
			body []byte
			want int
		}{
			{doc[:limit], http.StatusOK},
			{doc, http.StatusRequestEntityTooLarge},
		} {
			resp, err := http.Post(ts.URL+path, "text/plain", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s with a %d-byte body (limit %d): status %d, want %d", path, len(tc.body), limit, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestCountsModeMatchesDetectCounts checks that /batch and /stream in
// counts mode (IncludeCounts), with and without spans, report exactly
// the per-language counts Detector.DetectCounts gives for each
// document.
func TestCountsModeMatchesDetectCounts(t *testing.T) {
	corp, ps := fixtures(t)
	det, err := core.NewDetector(ps)
	if err != nil {
		t.Fatal(err)
	}
	// The documents travel as JSON strings, so each is taken as the
	// server will see it: Latin-1 bytes that are not valid UTF-8 turn
	// into U+FFFD on the way.
	var texts []string
	for _, lang := range testLangs {
		for _, d := range corp.Test[lang][:3] {
			var text string
			enc, _ := json.Marshal(string(d.Text))
			if err := json.Unmarshal(enc, &text); err != nil {
				t.Fatal(err)
			}
			texts = append(texts, text)
		}
	}
	want := make([]map[string]int, len(texts))
	for i, text := range texts {
		counts := make([]int, len(det.Languages()))
		det.DetectCounts([]byte(text), counts)
		want[i] = map[string]int{}
		for l, lang := range det.Languages() {
			want[i][lang] = counts[l]
		}
	}
	ts, _ := newTestServer(t, serve.Config{IncludeCounts: true})
	check := func(path string, got []serve.Detection) {
		t.Helper()
		if len(got) != len(texts) {
			t.Fatalf("%s: %d detections for %d documents", path, len(got), len(texts))
		}
		for i, d := range got {
			if !reflect.DeepEqual(d.Counts, want[i]) {
				t.Errorf("%s doc %d: counts %v, want %v", path, i, d.Counts, want[i])
			}
		}
	}

	body, err := json.Marshal(texts)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch []serve.Detection
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	check("/batch", batch)

	var ndjson strings.Builder
	for i, text := range texts {
		line, err := json.Marshal(map[string]string{"id": fmt.Sprint(i), "text": text})
		if err != nil {
			t.Fatal(err)
		}
		ndjson.Write(append(line, '\n'))
	}
	for _, path := range []string{"/stream", "/stream?spans=1"} {
		resp, err := http.Post(ts.URL+path, "application/x-ndjson", strings.NewReader(ndjson.String()))
		if err != nil {
			t.Fatal(err)
		}
		var got []serve.Detection
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var d serve.Detection
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				t.Fatal(err)
			}
			got = append(got, d)
		}
		resp.Body.Close()
		check(path, got)
	}
}
