package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/serve"
)

// BenchmarkServe measures each endpoint in-process through
// Handler().ServeHTTP — body read, JSON decode, detection and response
// encode, without the network — on fixed fixtures shaped like the
// end-to-end workloads: one ~6.8 KB document on /detect, a 16-document
// /batch, 64 ~60-byte NDJSON lines on one /stream, and a 3-language
// ~900-byte /segment document. Bytes are the documents' text.
func BenchmarkServe(b *testing.B) {
	corp, ps := fixtures(b)
	var docs []string
	batchBytes := 0
	for _, lang := range testLangs {
		for _, d := range corp.Test[lang][:4] {
			docs = append(docs, string(d.Text))
			batchBytes += len(d.Text)
		}
	}
	batch, _ := json.Marshal(docs)
	var stream []byte
	streamBytes := 0
	for i := 0; i < 64; i++ {
		text := corp.Test[testLangs[i%len(testLangs)]][i/len(testLangs)].Text[:60]
		line, _ := json.Marshal(map[string]string{"text": string(text)})
		stream = append(append(stream, line...), '\n')
		streamBytes += len(text)
	}
	var mixed []byte
	for _, lang := range []string{"en", "fi", "es"} {
		mixed = append(mixed, paperDoc(b, lang, 300)...)
	}
	detect := paperDoc(b, "en", 6800)
	cases := []struct {
		name, target string
		body         []byte
		bytes        int
		backend      core.Backend
	}{
		{"detect", "/detect", detect, len(detect), core.BackendBlocked},
		{"batch", "/batch", batch, batchBytes, core.BackendBlocked},
		{"stream", "/stream", stream, streamBytes, core.BackendBlocked},
		{"segment", "/segment", mixed, len(mixed), core.BackendDirect},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			srv, err := serve.New(ps, serve.Config{Backend: c.backend})
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			b.SetBytes(int64(c.bytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.target, bytes.NewReader(c.body)))
				if w.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", c.target, w.Code, w.Body)
				}
			}
		})
	}
}
