package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
)

// referenceDetection is the Detection that d stands for, built field
// by field the way the handlers built their responses before the
// appenders: the value encoding/json must encode to the appenders'
// bytes.
func referenceDetection(d *detection) Detection {
	out := Detection{
		ID:       d.id,
		Language: d.m.Lang,
		Name:     corpus.Name(d.m.Lang),
		NGrams:   d.m.NGrams,
		Count:    d.m.Count,
		Score:    d.m.Score,
		Margin:   d.m.Margin,
		Unknown:  d.m.Unknown,
		Error:    d.err,
	}
	if d.counts != nil {
		out.Counts = make(map[string]int, len(d.langs))
		for i, l := range d.langs {
			out.Counts[l] = d.counts[i]
		}
	}
	if len(d.spans) > 0 {
		out.Spans = referenceSpans(d.spans)
	}
	return out
}

func referenceSpans(spans []core.Span) []SpanDetection {
	out := make([]SpanDetection, len(spans))
	for i, sp := range spans {
		out[i] = SpanDetection{
			Start:    sp.Start,
			End:      sp.End,
			Language: sp.Lang,
			Name:     corpus.Name(sp.Lang),
			Score:    sp.Score,
			Margin:   sp.Margin,
			Unknown:  sp.Unknown,
		}
	}
	return out
}

// encodeLine is what json.Encoder.Encode writes for v: json.Marshal's
// bytes with HTML escaping on, plus "\n".
func encodeLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzResponseEncoding holds the response appenders to encoding/json
// byte for byte: a Detection with and without counts (in and out of
// language order, with a repeated language) and spans, a /stream error
// line, a Segmentation and the error envelope. Strings take invalid
// UTF-8, control characters, <>& and U+2028/2029; floats take any
// finite value, including the ranges encoding/json writes in
// e-notation.
func FuzzResponseEncoding(f *testing.F) {
	f.Add("doc-1", "en", "bad document line", 0.5, 0.25, 120, 60, uint8(0xff))
	f.Add("", "", "", 0.0, math.Copysign(0, -1), 0, 0, uint8(0))
	f.Add("<a href='x'>&amp;</a>", "fi", "line\u2028sep\u2029par", 1e-7, 1e21, -1, 1<<40, uint8(0x5a))
	f.Add("\xff\xfe\xc3", "\x00\x1f\x7f\"\\", "\b\f\n\r\t\x01", 5e-324, 1.7976931348623157e308, 7, 3, uint8(0xa5))
	f.Add("\u00e9 \u00fc \u65e5\u672c", "zz", "\u20ac \xe2\x82", 9.999999e-7, 123456789.123456789, 3, 9, uint8(0x0f))
	f.Fuzz(func(t *testing.T, id, lang, msg string, x, y float64, n, c int, flags uint8) {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			t.Skip("encoding/json rejects non-finite floats; scores are finite")
		}
		spans := []core.Span{
			{Start: 0, End: n, Lang: lang, Score: x, Margin: y, Unknown: flags&1 != 0},
			{Start: n, End: c, Lang: "en", Score: y, Margin: x / 3},
		}
		langs := []string{"cs", "en", "fi", "sv"}
		if flags&2 != 0 {
			langs = []string{lang, "en", "cs", lang, id}
		}
		counts := make([]int, len(langs))
		for i := range counts {
			counts[i] = n - i*c
		}
		d := detection{
			id:    id,
			m:     core.Match{Lang: lang, NGrams: n, Count: c, Score: x, Margin: y, Unknown: flags&4 != 0},
			langs: langs,
		}
		if flags&8 != 0 {
			d.counts = counts
		}
		if flags&16 != 0 {
			d.spans = spans
		}
		if got, want := append(appendDetection(nil, &d), '\n'), encodeLine(t, referenceDetection(&d)); !bytes.Equal(got, want) {
			t.Errorf("detection:\n got %s\nwant %s", got, want)
		}
		errLine := detection{err: msg}
		if got, want := append(appendDetection(nil, &errLine), '\n'), encodeLine(t, Detection{Error: msg}); !bytes.Equal(got, want) {
			t.Errorf("stream error line:\n got %s\nwant %s", got, want)
		}
		seg := Segmentation{Bytes: n, Window: c, Stride: int(flags), Spans: referenceSpans(spans[:flags%3])}
		if got, want := appendSegmentation(nil, n, c, int(flags), spans[:flags%3]), encodeLine(t, seg); !bytes.Equal(got, want) {
			t.Errorf("segmentation:\n got %s\nwant %s", got, want)
		}
		envelope := struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}{msg, c}
		if got, want := appendError(nil, msg, c), encodeLine(t, envelope); !bytes.Equal(got, want) {
			t.Errorf("error envelope:\n got %s\nwant %s", got, want)
		}
	})
}
