package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bloomlang/internal/serve"
)

// fuzzLineLimit keeps over-long /stream lines within the fuzzer's reach.
const fuzzLineLimit = 512

// ndjsonDoc mirrors the /stream line grammar: a bare JSON string, or
// an object with optional "id" and "text", either after optional JSON
// whitespace.
func ndjsonDoc(line []byte) (id, text string, ok bool) {
	if v := bytes.TrimLeft(line, " \t\r\n"); len(v) > 0 && v[0] == '"' {
		return "", text, json.Unmarshal(line, &text) == nil
	}
	var obj struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	if err := json.Unmarshal(line, &obj); err != nil {
		return "", "", false
	}
	return obj.ID, obj.Text, true
}

// FuzzStreamNDJSON feeds arbitrary bodies to /stream (and
// /stream?spans=1) in-process. Every output line must be a JSON
// Detection; each input line that decodes as a document must come back
// with the language, n-gram count and match count Detect gives its
// text (spans mode: plus a span tiling of it); a malformed line gets an
// in-band error; and a line of fuzzLineLimit bytes or more ends the
// stream with exactly one error line.
func FuzzStreamNDJSON(f *testing.F) {
	corp, ps := fixtures(f)
	srv, err := serve.New(ps, serve.Config{MaxLineBytes: fuzzLineLimit})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	det := srv.Detector()
	en, _ := json.Marshal(map[string]string{"id": "a", "text": string(corp.Test["en"][0].Text[:200])})
	fi, _ := json.Marshal(string(corp.Test["fi"][0].Text[:100]))
	f.Add(append(append(append(en, '\n'), fi...), '\n'), false)
	f.Add(append(append(en, "\r\n\n"...), fi...), true)
	f.Add([]byte("not json\n{\"text\":\"el consejo\"}\nnull\n\"\"\n42\n"), false)
	f.Add([]byte(`{"text":"`+strings.Repeat("abc ", 200)+`"}`+"\n"+`"after"`), true)
	f.Add([]byte("\"caf\xe9 \xff\"\n{\"id\":\"x\",\"text\":\"\\u00e9t\\u00e9\"}"), false)
	f.Fuzz(func(t *testing.T, body []byte, spans bool) {
		target := "/stream"
		if spans {
			target += "?spans=1"
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		var out []serve.Detection
		sc := bufio.NewScanner(w.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var d serve.Detection
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				t.Fatalf("output line %q is not a Detection: %v", sc.Bytes(), err)
			}
			out = append(out, d)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		next := func(what string) serve.Detection {
			t.Helper()
			if len(out) == 0 {
				t.Fatalf("stream ended before the line for %s", what)
			}
			d := out[0]
			out = out[1:]
			return d
		}
		for _, raw := range bytes.SplitAfter(body, []byte("\n")) {
			line := bytes.TrimSuffix(raw, []byte("\n"))
			if len(line) >= fuzzLineLimit {
				d := next("an over-long line")
				if want := fmt.Sprintf("exceeds %d bytes", fuzzLineLimit); !strings.Contains(d.Error, want) {
					t.Fatalf("over-long line answered %+v, want an error containing %q", d, want)
				}
				if len(out) != 0 {
					t.Fatalf("%d lines after the over-long line's error: %+v", len(out), out)
				}
				return
			}
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			id, text, ok := ndjsonDoc(line)
			d := next(fmt.Sprintf("%q", line))
			if !ok {
				if d.Error == "" {
					t.Fatalf("malformed line %q answered %+v, want an error", line, d)
				}
				continue
			}
			m := det.Detect([]byte(text))
			if d.Error != "" || d.ID != id || d.Language != m.Lang || d.NGrams != m.NGrams || d.Count != m.Count || d.Unknown != m.Unknown {
				t.Fatalf("line %q answered %+v, Detect gives %+v", line, d, m)
			}
			if spans && len(text) > 0 {
				checkSpansTile(t, d.Spans, len(text))
			} else if d.Spans != nil {
				t.Fatalf("line %q carries spans %+v", line, d.Spans)
			}
		}
		if len(out) != 0 {
			t.Fatalf("%d output lines beyond the input's documents: %+v", len(out), out)
		}
	})
}
