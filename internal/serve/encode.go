package serve

// Response encoding for the detection endpoints. /detect, /batch,
// /stream, /segment and the error envelope append their JSON by hand
// into the request's pooled buffer: no reflection, no per-request map
// for the counts and no intermediate wire structs for the spans. The
// bytes are exactly what encoding/json writes for the public types
// (Detection, Segmentation, the {"error","status"} envelope): the
// json.Marshal output plus the "\n" json.Encoder.Encode adds, with HTML
// escaping on. FuzzResponseEncoding holds the appenders to that.
// /statsz and /admin/* stay on encoding/json; they are not hot.

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
)

// maxPooledBuf bounds the buffers returned to the request pool, so a
// rare huge body or /batch response is left to the garbage collector
// instead of pinning its memory in the pool. maxPooledSpans bounds the
// pooled span slices the same way (a Span is 56 bytes).
const (
	maxPooledBuf   = 64 << 10
	maxPooledSpans = 1 << 10
)

// reqScratch is one request's reusable memory: buf holds the request
// body and then the response appended over it, counts and spans the
// detection results.
type reqScratch struct {
	buf    []byte
	counts []int
	spans  []core.Span
}

var scratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

// getScratch takes a request's scratch from the pool with counts sized
// to langs languages.
func getScratch(langs int) *reqScratch {
	sc := scratchPool.Get().(*reqScratch)
	if cap(sc.counts) < langs {
		sc.counts = make([]int, langs)
	}
	sc.counts = sc.counts[:langs]
	return sc
}

// putScratch returns sc to the pool, dropping whatever grew past the
// pool bounds.
func putScratch(sc *reqScratch) {
	if cap(sc.buf) > maxPooledBuf {
		sc.buf = nil
	}
	if cap(sc.spans) > maxPooledSpans {
		sc.spans = nil
	}
	sc.buf, sc.spans = sc.buf[:0], sc.spans[:0]
	scratchPool.Put(sc)
}

// detection is one Detection before encoding: the request id, the
// match, the per-language counts in langs order (encoded when counts
// is non-nil), the spans (encoded when non-empty) and a per-line error.
type detection struct {
	id     string
	m      core.Match
	langs  []string
	counts []int
	spans  []core.Span
	err    string
}

// appendDetection appends the JSON object the Detection that d stands
// for marshals to.
func appendDetection(b []byte, d *detection) []byte {
	b = append(b, '{')
	if d.id != "" {
		b = append(b, `"id":`...)
		b = appendString(b, d.id)
		b = append(b, ',')
	}
	b = append(b, `"language":`...)
	b = appendString(b, d.m.Lang)
	if name := corpus.Name(d.m.Lang); name != "" {
		b = append(b, `,"name":`...)
		b = appendString(b, name)
	}
	b = append(b, `,"ngrams":`...)
	b = strconv.AppendInt(b, int64(d.m.NGrams), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(d.m.Count), 10)
	b = append(b, `,"score":`...)
	b = appendFloat(b, d.m.Score)
	b = append(b, `,"margin":`...)
	b = appendFloat(b, d.m.Margin)
	if d.m.Unknown {
		b = append(b, `,"unknown":true`...)
	}
	if d.counts != nil && len(d.langs) > 0 {
		b = append(b, `,"counts":`...)
		b = appendCounts(b, d.langs, d.counts)
	}
	if len(d.spans) > 0 {
		b = append(b, `,"spans":`...)
		b = appendSpans(b, d.spans)
	}
	if d.err != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, d.err)
	}
	return append(b, '}')
}

// appendCounts appends counts as the JSON object a map from language
// to count marshals to: keys in byte order, and for a language listed
// twice the later count. Languages() is strictly sorted for every
// trained profile set, so that case is one pass with no map.
func appendCounts(b []byte, langs []string, counts []int) []byte {
	for i := 1; i < len(langs); i++ {
		if langs[i-1] >= langs[i] {
			return appendCountsUnsorted(b, langs, counts)
		}
	}
	b = append(b, '{')
	for i, l := range langs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, l)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(counts[i]), 10)
	}
	return append(b, '}')
}

// appendCountsUnsorted is appendCounts for a profile set whose
// languages are out of order or repeated, as a hand-assembled or
// legacy profile file can be.
func appendCountsUnsorted(b []byte, langs []string, counts []int) []byte {
	order := make([]int, len(langs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return langs[order[i]] < langs[order[j]] })
	b = append(b, '{')
	first := true
	for k, i := range order {
		if k+1 < len(order) && langs[order[k+1]] == langs[i] {
			continue // a later entry of the same language wins
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = appendString(b, langs[i])
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(counts[i]), 10)
	}
	return append(b, '}')
}

// appendSpans appends spans as the JSON array of SpanDetections they
// convert to.
func appendSpans(b []byte, spans []core.Span) []byte {
	b = append(b, '[')
	for i := range spans {
		if i > 0 {
			b = append(b, ',')
		}
		sp := &spans[i]
		b = append(b, `{"start":`...)
		b = strconv.AppendInt(b, int64(sp.Start), 10)
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, int64(sp.End), 10)
		b = append(b, `,"language":`...)
		b = appendString(b, sp.Lang)
		if name := corpus.Name(sp.Lang); name != "" {
			b = append(b, `,"name":`...)
			b = appendString(b, name)
		}
		b = append(b, `,"score":`...)
		b = appendFloat(b, sp.Score)
		b = append(b, `,"margin":`...)
		b = appendFloat(b, sp.Margin)
		if sp.Unknown {
			b = append(b, `,"unknown":true`...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendSegmentation appends the /segment response line: the
// Segmentation of a docBytes-byte document into spans under the given
// geometry.
func appendSegmentation(b []byte, docBytes, window, stride int, spans []core.Span) []byte {
	b = append(b, `{"bytes":`...)
	b = strconv.AppendInt(b, int64(docBytes), 10)
	b = append(b, `,"window":`...)
	b = strconv.AppendInt(b, int64(window), 10)
	b = append(b, `,"stride":`...)
	b = strconv.AppendInt(b, int64(stride), 10)
	b = append(b, `,"spans":`...)
	b = appendSpans(b, spans)
	return append(b, "}\n"...)
}

// appendError appends the error envelope line {"error":msg,"status":status}.
func appendError(b []byte, msg string, status int) []byte {
	b = append(b, `{"error":`...)
	b = appendString(b, msg)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(status), 10)
	return append(b, "}\n"...)
}

// appendFloat appends f the way encoding/json writes a float64: the
// shortest representation that round-trips, in %f form except below
// 1e-6 or from 1e21 on, where it is %e with a one-digit exponent kept
// unpadded. f must be finite, as every score and margin is.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json writes
// one with HTML escaping on: ", \ and the control characters escaped
// (\b \f \n \r \t by name, the rest as \u00XX), <, > and & as
// \u003c, \u003e and \u0026, U+2028 and U+2029 escaped, and each byte
// of invalid UTF-8 replaced by \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
