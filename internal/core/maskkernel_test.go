package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/bloom"
	"bloomlang/internal/h3"
	"bloomlang/internal/ngram"
)

// Exact-equivalence harness for the bit-sliced mask kernels. Each
// kernel is compared with a small reference scorer that knows nothing
// of lanes, folded hashes or vertical counters: for blocked, the
// per-language membership test over the NGBK block-major word layout;
// for direct, map membership.

// refBlocked is the reference scorer for a blocked set: it decodes the
// set's NGBK bytes into block-major words and tests one language at a
// time with H3 functions drawn from the recorded seed the way the
// format defines them.
type refBlocked struct {
	sel    *h3.Func
	probes []*h3.Func
	words  []uint64 // blocks × langs × BlockWords
	langs  int
}

func newRefBlocked(t testing.TB, s *bloom.BlockedSet) *refBlocked {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var hdr struct {
		Magic     [4]byte
		Version   uint8
		K         uint8
		InputBits uint8
		Blocks    uint32
		Langs     uint32
		Seed      int64
	}
	r := bytes.NewReader(buf.Bytes())
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		t.Fatal(err)
	}
	ns := make([]uint32, hdr.Langs)
	words := make([]uint64, int(hdr.Blocks)*int(hdr.Langs)*bloom.BlockWords)
	if err := binary.Read(r, binary.LittleEndian, ns); err != nil {
		t.Fatal(err)
	}
	if err := binary.Read(r, binary.LittleEndian, words); err != nil {
		t.Fatal(err)
	}
	sel, err := h3.NewFamily(1, uint(hdr.InputBits), uint(bits.TrailingZeros32(hdr.Blocks)), hdr.Seed)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := h3.NewFamily(int(hdr.K)-1, uint(hdr.InputBits), 9, hdr.Seed+0x9E3779B9)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refBlocked{sel: sel.Func(0), words: words, langs: int(hdr.Langs)}
	for i := 0; i < probes.K(); i++ {
		ref.probes = append(ref.probes, probes.Func(i))
	}
	return ref
}

func (r *refBlocked) test(lang int, g uint32) bool {
	base := (int(r.sel.Hash(g))*r.langs + lang) * bloom.BlockWords
	for _, f := range r.probes {
		h := f.Hash(g)
		if r.words[base+int(h>>6)]&(1<<(h&63)) == 0 {
			return false
		}
	}
	return true
}

// refCounts scores gs one language at a time with test.
func refCounts(langs int, gs []uint32, test func(lang int, g uint32) bool) []int {
	counts := make([]int, langs)
	for lang := range counts {
		for _, g := range gs {
			if test(lang, g) {
				counts[lang]++
			}
		}
	}
	return counts
}

// refDirect is the reference scorer for the direct backend: map
// membership per language.
func refDirect(profiles []*ngram.Profile) func(lang int, g uint32) bool {
	sets := make([]map[uint32]bool, len(profiles))
	for i, p := range profiles {
		sets[i] = map[uint32]bool{}
		for _, g := range p.Grams {
			sets[i][g] = true
		}
	}
	return func(lang int, g uint32) bool { return sets[lang][g] }
}

// maskLangCounts are the language counts the harness covers: every
// lane width, each side of each width boundary, and the 64 limit.
var maskLangCounts = []int{1, 7, 8, 9, 16, 17, 33, 64}

// randomProfiles draws langs 20-bit profiles of n grams from a shared
// pool, so n-grams overlap across languages and masks carry several
// bits.
func randomProfiles(rng *rand.Rand, langs, n int) []*ngram.Profile {
	pool := make([]uint32, 4*n)
	for i := range pool {
		pool[i] = rng.Uint32() & (1<<ngram.Bits(4) - 1)
	}
	profiles := make([]*ngram.Profile, langs)
	for i := range profiles {
		p := &ngram.Profile{Language: fmt.Sprintf("l%02d", i), N: 4}
		for j := 0; j < n; j++ {
			p.Grams = append(p.Grams, pool[rng.Intn(len(pool))])
		}
		profiles[i] = p
	}
	return profiles
}

// probeGrams mixes profile members with random n-grams in its first
// half and repeats one member n-gram through its second, so with n
// beyond twice MaskChunk every flush boundary is crossed and some
// languages hit on more consecutive n-grams than a byte lane holds.
func probeGrams(rng *rand.Rand, profiles []*ngram.Profile, n int) []uint32 {
	gs := make([]uint32, n)
	for i := range gs {
		if i >= n/2 {
			gs[i] = gs[0]
		} else if i%2 == 0 {
			p := profiles[rng.Intn(len(profiles))]
			gs[i] = p.Grams[rng.Intn(len(p.Grams))]
		} else {
			gs[i] = rng.Uint32() & (1<<ngram.Bits(4) - 1)
		}
	}
	return gs
}

// checkAccumulate runs the kernel twice over gs into the same counts:
// the first pass must equal want exactly, the second must double it.
func checkAccumulate(t *testing.T, name string, k Kernel, langs int, gs []uint32, want []int) {
	t.Helper()
	got := make([]int, langs)
	k.AccumulateInto(got, gs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: kernel counts %v, reference %v", name, got, want)
	}
	k.AccumulateInto(got, gs)
	for i := range got {
		if got[i] != 2*want[i] {
			t.Fatalf("%s: second pass gave %v, want twice %v", name, got, want)
		}
	}
}

func TestBlockedMaskKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, langs := range maskLangCounts {
		for k := 2; k <= 9; k++ {
			name := fmt.Sprintf("L=%d/k=%d", langs, k)
			// Four blocks keep the filters dense, so false positives are
			// common and a dropped or misplaced probe changes the counts.
			s, err := bloom.NewBlockedSet(langs, k, ngram.Bits(4), 4, int64(langs*100+k))
			if err != nil {
				t.Fatal(err)
			}
			profiles := randomProfiles(rng, langs, 150)
			for i, p := range profiles {
				s.AddAll(i, p.Grams)
			}
			ref := newRefBlocked(t, s)
			gs := probeGrams(rng, profiles, 900)
			checkAccumulate(t, name, s, langs, gs, refCounts(langs, gs, ref.test))
		}
	}
}

func TestDirectMaskKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, langs := range maskLangCounts {
		profiles := randomProfiles(rng, langs, 300)
		ps := &ProfileSet{Config: DefaultConfig(), Profiles: profiles}
		kern, err := buildDirectLookup(ps.Config, ps)
		if err != nil {
			t.Fatal(err)
		}
		isMember := refDirect(profiles)
		gs := probeGrams(rng, profiles, 900)
		checkAccumulate(t, fmt.Sprintf("L=%d", langs), kern, langs, gs, refCounts(langs, gs, isMember))
		for _, g := range gs[:64] {
			for lang := 0; lang < langs; lang++ {
				if kern.Test(lang, g) != isMember(lang, g) {
					t.Fatalf("L=%d: Test(%d, %#x) disagrees with the map", langs, lang, g)
				}
			}
		}
	}
}

// TestFusedKernelsRejectMoreThan64Languages checks that both fused
// backends refuse 65 languages, at construction and on NGBK read, with
// an error that points at parallel-bloom.
func TestFusedKernelsRejectMoreThan64Languages(t *testing.T) {
	const langs = bloom.MaxLaneLangs + 1
	rng := rand.New(rand.NewSource(73))
	ps := &ProfileSet{Config: DefaultConfig().WithDefaults(), Profiles: randomProfiles(rng, langs, 20)}
	mustName := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "parallel-bloom") {
			t.Errorf("%s with %d languages: error %v, want one naming parallel-bloom", what, langs, err)
		}
	}
	for _, backend := range []Backend{BackendBlocked, BackendDirect} {
		_, err := New(ps, backend)
		mustName(backend.String(), err)
	}
	_, err := bloom.NewBlockedSet(langs, 4, 20, 16, 1)
	mustName("NewBlockedSet", err)

	// An NGBK header claiming 65 languages, as another tool might write.
	s, err := bloom.NewBlockedSet(bloom.MaxLaneLangs, 4, 20, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[11:15], langs) // magic 4, version/k/inputBits 3, blocks 4
	_, err = bloom.ReadBlockedSet(bytes.NewReader(data))
	mustName("ReadBlockedSet", err)
}

// parentFixture is testdata/ngps_v2.json: documents and the
// per-backend counts the block-major kernels gave for them, written
// together with testdata/ngps_v2.bin (an NGPS v2 file with the blocked
// layout embedded) before the lane-major kernels existed.
type parentFixture struct {
	Text   []byte           `json:"text"`
	Counts map[string][]int `json:"counts"`
	NGrams int              `json:"ngrams"`
}

// TestNGPSv2FixtureLoadsAndScoresIdentically pins the on-disk format
// across the kernel change: an NGPS v2 file written by the block-major
// code loads, scores every fixture document exactly as that code did
// on all four backends, and writes back byte for byte.
func TestNGPSv2FixtureLoadsAndScoresIdentically(t *testing.T) {
	path := filepath.Join("testdata", "ngps_v2.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := LoadProfileSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.HasBlockedLayout() {
		t.Fatal("fixture lost its embedded blocked layout")
	}
	js, err := os.ReadFile(filepath.Join("testdata", "ngps_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var docs []parentFixture
	if err := json.Unmarshal(js, &docs); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{BackendBloom, BackendDirect, BackendClassic, BackendBlocked} {
		det, err := NewDetector(ps, WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range docs {
			counts := make([]int, len(det.Languages()))
			m := det.DetectCounts(d.Text, counts)
			if want := d.Counts[backend.String()]; !reflect.DeepEqual(counts, want) || m.NGrams != d.NGrams {
				t.Errorf("%v doc %d: counts %v over %d n-grams, fixture %v over %d", backend, i, counts, m.NGrams, want, d.NGrams)
			}
		}
	}
	var again bytes.Buffer
	if _, err := ps.WriteToBlocked(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Errorf("rewriting the fixture gave %d bytes that differ from the %d on disk", again.Len(), len(raw))
	}
}

// FuzzMaskKernelVsReference feeds arbitrary documents through both
// mask kernels and their reference scorers: a 10-language set (16-bit
// lanes, k=4, one folded table) and a 33-language set (64-bit lanes,
// k=9, probes split across two folded tables).
func FuzzMaskKernelVsReference(f *testing.F) {
	rng := rand.New(rand.NewSource(74))
	type fixture struct {
		blocked  *bloom.BlockedSet
		ref      *refBlocked
		direct   Kernel
		isMember func(lang int, g uint32) bool
		langs    int
	}
	var fixtures []fixture
	for _, shape := range []struct{ langs, k int }{{10, 4}, {33, 9}} {
		profiles := randomProfiles(rng, shape.langs, 400)
		s, err := bloom.NewBlockedSet(shape.langs, shape.k, ngram.Bits(4), 8, 5)
		if err != nil {
			f.Fatal(err)
		}
		for i, p := range profiles {
			s.AddAll(i, p.Grams)
		}
		ps := &ProfileSet{Config: DefaultConfig(), Profiles: profiles}
		direct, err := buildDirectLookup(ps.Config, ps)
		if err != nil {
			f.Fatal(err)
		}
		fixtures = append(fixtures, fixture{s, newRefBlocked(f, s), direct, refDirect(profiles), shape.langs})
	}
	ext, err := ngram.NewExtractor(4)
	if err != nil {
		f.Fatal(err)
	}
	corp := getMiniCorpus(f)
	f.Add(corp.Test["fi"][0].Text)
	f.Add([]byte("\x00\xff un documento tr\xe8s fran\xe7ais \x01\x02"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := *ext
		gs := e.Feed(nil, alphabet.TranslateAll(data))
		for _, fx := range fixtures {
			for _, c := range []struct {
				name string
				k    Kernel
				test func(int, uint32) bool
			}{{"blocked", fx.blocked, fx.ref.test}, {"direct", fx.direct, fx.isMember}} {
				want := refCounts(fx.langs, gs, c.test)
				got := make([]int, fx.langs)
				c.k.AccumulateInto(got, gs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s L=%d: kernel %v, reference %v", c.name, fx.langs, got, want)
				}
			}
		}
	})
}
