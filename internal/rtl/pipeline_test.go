package rtl

import (
	"testing"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
)

func testClassifier(t testing.TB) (*core.Classifier, *corpus.Corpus) {
	t.Helper()
	cfg := corpus.Config{
		Languages:       []string{"en", "fi", "es"},
		DocsPerLanguage: 12,
		WordsPerDoc:     150,
		TrainFraction:   0.3,
		Seed:            21,
	}
	corp, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.Train(core.Config{TopT: 1500, Seed: 21}, corp)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.New(ps, core.BackendBloom)
	if err != nil {
		t.Fatal(err)
	}
	return c, corp
}

func TestNewValidation(t *testing.T) {
	c, _ := testClassifier(t)
	if _, err := New(c); err != nil {
		t.Fatalf("New: %v", err)
	}
	ps, _ := core.TrainFromTexts(core.Config{TopT: 100}, map[string][][]byte{
		"en": {[]byte("enough text for a tiny profile here")},
	})
	direct, _ := core.New(ps, core.BackendDirect)
	if _, err := New(direct); err == nil {
		t.Error("New accepted a direct-lookup classifier")
	}
	subPS, _ := core.TrainFromTexts(core.Config{TopT: 100, Subsample: 2}, map[string][][]byte{
		"en": {[]byte("enough text for a tiny profile here")},
	})
	subC, _ := core.New(subPS, core.BackendBloom)
	if _, err := New(subC); err == nil {
		t.Error("New accepted a subsampling classifier")
	}
}

// The RTL ground truth: pipeline counters equal the functional
// classifier's match counts for every document.
func TestPipelineMatchesFunctional(t *testing.T) {
	c, corp := testClassifier(t)
	p, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, lang := range corp.Languages {
		for _, d := range corp.Test[lang][:3] {
			counters, _ := p.RunDocument(d.Text)
			want := c.ClassifyGrams(c.ExtractGrams(nil, d.Text))
			for l := range want.Counts {
				if counters[l] != want.Counts[l] {
					t.Fatalf("%s doc %d lang %d: RTL %d != functional %d",
						lang, d.ID, l, counters[l], want.Counts[l])
				}
			}
		}
	}
}

// Latency model: a document of c characters takes ceil(c/2) input
// cycles plus Depth drain cycles.
func TestPipelineCycleCount(t *testing.T) {
	c, corp := testClassifier(t)
	p, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	doc := corp.Test["en"][0].Text
	_, cycles := p.RunDocument(doc)
	wantInput := (int64(len(doc)) + 1) / 2
	if cycles != wantInput+Depth {
		t.Errorf("cycles = %d, want %d input + %d drain", cycles, wantInput, Depth)
	}
}

func TestPipelineOddLengthDocument(t *testing.T) {
	c, _ := testClassifier(t)
	p, _ := New(c)
	doc := []byte("seven ch") // 8 bytes
	odd := []byte("seven chr")
	countersEven, _ := p.RunDocument(doc)
	wantEven := c.ClassifyGrams(c.ExtractGrams(nil, doc))
	for l := range wantEven.Counts {
		if countersEven[l] != wantEven.Counts[l] {
			t.Fatal("even-length mismatch")
		}
	}
	countersOdd, _ := p.RunDocument(odd)
	wantOdd := c.ClassifyGrams(c.ExtractGrams(nil, odd))
	for l := range wantOdd.Counts {
		if countersOdd[l] != wantOdd.Counts[l] {
			t.Fatal("odd-length mismatch")
		}
	}
}

func TestPipelineShortDocuments(t *testing.T) {
	c, _ := testClassifier(t)
	p, _ := New(c)
	for _, doc := range []string{"", "a", "ab", "abc", "abcd", "abcde"} {
		counters, _ := p.RunDocument([]byte(doc))
		want := c.ClassifyGrams(c.ExtractGrams(nil, []byte(doc)))
		for l := range want.Counts {
			if counters[l] != want.Counts[l] {
				t.Errorf("%q: RTL %v != functional %v", doc, counters, want.Counts)
			}
		}
	}
}

func TestPipelineResetBetweenDocuments(t *testing.T) {
	c, corp := testClassifier(t)
	p, _ := New(c)
	docA := corp.Test["fi"][0].Text
	docB := corp.Test["es"][0].Text
	p.RunDocument(docA)
	counters, _ := p.RunDocument(docB) // RunDocument resets internally
	want := c.ClassifyGrams(c.ExtractGrams(nil, docB))
	for l := range want.Counts {
		if counters[l] != want.Counts[l] {
			t.Fatal("state leaked between documents")
		}
	}
}

func TestPipelineIncrementalClocking(t *testing.T) {
	// Drive the pipeline manually one character per cycle (half rate):
	// results must still match, and cycles double.
	c, corp := testClassifier(t)
	p, _ := New(c)
	doc := corp.Test["es"][0].Text[:200]
	p.Reset()
	codes := alphabet.TranslateAll(doc)
	for _, code := range codes {
		p.Clock(code, 0, 1)
	}
	p.Drain()
	want := c.ClassifyGrams(c.ExtractGrams(nil, doc))
	got := p.Counters()
	for l := range want.Counts {
		if got[l] != want.Counts[l] {
			t.Fatal("half-rate clocking changed results")
		}
	}
	if p.Cycles() != int64(len(codes))+Depth {
		t.Errorf("cycles = %d, want %d", p.Cycles(), int64(len(codes))+Depth)
	}
}

func TestPipelineInvalidInputCount(t *testing.T) {
	c, _ := testClassifier(t)
	p, _ := New(c)
	defer func() {
		if recover() == nil {
			t.Error("Clock with nValid=3 did not panic")
		}
	}()
	p.Clock(0, 0, 3)
}

// The dual-port constraint holds by construction: two n-grams per cycle
// issue exactly two reads to each (language, hash) RAM. A third read
// would panic inside Clock; streaming a long document proves the
// schedule never violates it.
func TestPipelineRAMPortDiscipline(t *testing.T) {
	c, corp := testClassifier(t)
	p, _ := New(c)
	long := corp.Test["en"][0].Text
	p.RunDocument(long) // panics on violation
}

func BenchmarkPipelineRTL(b *testing.B) {
	c, corp := testClassifier(b)
	p, err := New(c)
	if err != nil {
		b.Fatal(err)
	}
	doc := corp.Test["en"][0].Text
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RunDocument(doc)
	}
}
