package bloom

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestNewBlockedValidation(t *testing.T) {
	cases := []struct {
		name   string
		langs  int
		k      int
		blocks uint32
	}{
		{"zero languages", 0, 4, 64},
		{"k too small", 1, 1, 64},
		{"k too large", 1, 2 + maxProbes, 64},
		{"one block", 1, 4, 1},
		{"non-power-of-two blocks", 1, 4, 96},
		{"too many blocks", 1, 4, maxBlocks * 2},
	}
	for _, c := range cases {
		if _, err := NewBlockedSet(c.langs, c.k, 20, c.blocks, 1); err == nil {
			t.Errorf("%s: NewBlockedSet(%d, %d, 20, %d, 1) accepted", c.name, c.langs, c.k, c.blocks)
		}
	}
	if _, err := NewBlocked(4, 20, 64, 1); err != nil {
		t.Errorf("valid construction failed: %v", err)
	}
}

func TestBlockedNoFalseNegatives(t *testing.T) {
	b, err := NewBlocked(4, 20, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, 2000)
	for i := range keys {
		keys[i] = rng.Uint32() & 0xFFFFF
	}
	b.AddAll(keys)
	if b.N() != len(keys) {
		t.Errorf("N() = %d, want %d", b.N(), len(keys))
	}
	for _, g := range keys {
		if !b.Test(g) {
			t.Fatalf("false negative for programmed key %#x", g)
		}
	}
}

func TestBlockedResetClears(t *testing.T) {
	b, err := NewBlocked(3, 20, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(0x12345)
	if b.PopCount() == 0 {
		t.Fatal("Add set no bits")
	}
	b.Reset()
	if b.PopCount() != 0 || b.N() != 0 {
		t.Errorf("Reset left %d bits, n=%d", b.PopCount(), b.N())
	}
	if b.Test(0x12345) {
		t.Error("empty filter reports membership")
	}
}

func TestBlockedSetDeterministicAcrossInstances(t *testing.T) {
	build := func() *BlockedSet {
		s, err := NewBlockedSet(3, 4, 20, 128, 99)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for lang := 0; lang < 3; lang++ {
			for i := 0; i < 500; i++ {
				s.Add(lang, rng.Uint32()&0xFFFFF)
			}
		}
		return s
	}
	a, b := build(), build()
	for g := uint32(0); g < 1<<20; g += 997 {
		for lang := 0; lang < 3; lang++ {
			if a.Test(lang, g) != b.Test(lang, g) {
				t.Fatalf("same-seed sets disagree on lang %d key %#x", lang, g)
			}
		}
	}
}

func TestBlockedSetAccumulateMatchesTest(t *testing.T) {
	const langs = 5
	s, err := NewBlockedSet(langs, 4, 20, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for lang := 0; lang < langs; lang++ {
		for i := 0; i < 800; i++ {
			s.Add(lang, rng.Uint32()&0xFFFFF)
		}
	}
	gs := make([]uint32, 4000)
	for i := range gs {
		gs[i] = rng.Uint32() & 0xFFFFF
	}
	want := make([]int, langs)
	for _, g := range gs {
		for lang := 0; lang < langs; lang++ {
			if s.Test(lang, g) {
				want[lang]++
			}
		}
	}
	got := make([]int, langs)
	s.AccumulateInto(got, gs)
	for lang := range want {
		if got[lang] != want[lang] {
			t.Errorf("lang %d: fused count %d, per-key count %d", lang, got[lang], want[lang])
		}
	}
	// AccumulateInto accumulates: a second pass doubles every count.
	s.AccumulateInto(got, gs)
	for lang := range want {
		if got[lang] != 2*want[lang] {
			t.Errorf("lang %d: second pass gave %d, want %d", lang, got[lang], 2*want[lang])
		}
	}
}

// TestBlockedSetGenericProbeCountMatchesTest covers the kernel with
// probe counts other than the paper's k=4.
func TestBlockedSetGenericProbeCountMatchesTest(t *testing.T) {
	for _, k := range []int{2, 3, 6, 9} {
		s, err := NewBlockedSet(3, k, 20, 64, 21)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		for lang := 0; lang < 3; lang++ {
			for i := 0; i < 500; i++ {
				s.Add(lang, rng.Uint32()&0xFFFFF)
			}
		}
		gs := make([]uint32, 2000)
		for i := range gs {
			gs[i] = rng.Uint32() & 0xFFFFF
		}
		want := make([]int, 3)
		for _, g := range gs {
			for lang := 0; lang < 3; lang++ {
				if s.Test(lang, g) {
					want[lang]++
				}
			}
		}
		got := make([]int, 3)
		s.AccumulateInto(got, gs)
		for lang := range want {
			if got[lang] != want[lang] {
				t.Errorf("k=%d lang %d: fused count %d, want %d", k, lang, got[lang], want[lang])
			}
		}
	}
}

// TestBlockedMeasuredFalsePositiveRate is the measured-FPR property
// test: program N random keys, probe M keys known to be absent, and
// check the observed false-positive rate against the §3.1 model
// f = (1 − e^(−N/m))^k applied to the blocked geometry (k−1 probes,
// m = totalBits/(k−1)) — the same formula documented for the parallel
// variant. The uniform model undercounts slightly because block loads
// are Poisson-spread, so the band is asymmetric: well above half the
// model, below twice the model plus sampling noise.
func TestBlockedMeasuredFalsePositiveRate(t *testing.T) {
	const (
		inputBits = 20
		n         = 5000
		probes    = 200000
	)
	for _, tc := range []struct {
		k      int
		blocks uint32
	}{
		{4, 256}, // the paper's default k, sized as the blocked backend sizes it
		{4, 128}, // heavier load
		{5, 256},
	} {
		b, err := NewBlocked(tc.k, inputBits, tc.blocks, 1234)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		programmed := make(map[uint32]bool, n)
		for len(programmed) < n {
			g := rng.Uint32() & (1<<inputBits - 1)
			if !programmed[g] {
				programmed[g] = true
				b.Add(g)
			}
		}
		model := b.FalsePositiveRate()
		if model <= 0 || model >= 1 {
			t.Fatalf("k=%d blocks=%d: degenerate model FPR %v", tc.k, tc.blocks, model)
		}
		falsePos, tested := 0, 0
		for tested < probes {
			g := rng.Uint32() & (1<<inputBits - 1)
			if programmed[g] {
				continue
			}
			tested++
			if b.Test(g) {
				falsePos++
			}
		}
		observed := float64(falsePos) / float64(tested)
		// Binomial standard deviation of the observation itself.
		sigma := math.Sqrt(model * (1 - model) / float64(tested))
		lo := model*0.5 - 5*sigma
		hi := model*2.0 + 5*sigma
		if observed < lo || observed > hi {
			t.Errorf("k=%d blocks=%d: observed FPR %.5f outside [%.5f, %.5f] around model %.5f",
				tc.k, tc.blocks, observed, lo, hi, model)
		}
	}
}

// TestBlocksForTargetMeetsParallelModel pins the sizing contract the
// blocked backend relies on: at the paper's default configuration the
// chosen block count gives a modelled FPR no worse than the parallel
// variant's at the same load.
func TestBlocksForTargetMeetsParallelModel(t *testing.T) {
	const n, k = 5000, 4
	var mBits uint32 = 16 * 1024
	target := FalsePositiveRate(n, mBits, k)
	blocks := BlocksForTarget(n, k, target)
	if blocks&(blocks-1) != 0 || blocks < 2 {
		t.Fatalf("BlocksForTarget returned %d, not a power of two >= 2", blocks)
	}
	b, err := NewBlocked(k, 20, blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		b.Add(rng.Uint32() & 0xFFFFF)
	}
	if got := b.FalsePositiveRate(); got > target {
		t.Errorf("blocked model FPR %v exceeds parallel target %v at %d blocks", got, target, blocks)
	}
	// Degenerate targets still give a usable geometry.
	for _, bad := range []float64{0, -1, 1, 2} {
		if got := BlocksForTarget(n, k, bad); got < 2 || got&(got-1) != 0 {
			t.Errorf("BlocksForTarget(%d, %d, %v) = %d", n, k, bad, got)
		}
	}
}

func TestBlockedSetSerializationRoundTrip(t *testing.T) {
	s, err := NewBlockedSet(4, 4, 20, 64, 55)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for lang := 0; lang < 4; lang++ {
		for i := 0; i < 300+100*lang; i++ {
			s.Add(lang, rng.Uint32()&0xFFFFF)
		}
	}
	var buf bytes.Buffer
	nw, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nw != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", nw, buf.Len())
	}
	got, err := ReadBlockedSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Langs() != s.Langs() || got.K() != s.K() || got.Blocks() != s.Blocks() || got.Seed() != s.Seed() {
		t.Fatalf("header did not round-trip: %+v", got)
	}
	for lang := 0; lang < 4; lang++ {
		if got.N(lang) != s.N(lang) {
			t.Errorf("lang %d: n=%d, want %d", lang, got.N(lang), s.N(lang))
		}
	}
	for g := uint32(0); g < 1<<20; g += 811 {
		for lang := 0; lang < 4; lang++ {
			if got.Test(lang, g) != s.Test(lang, g) {
				t.Fatalf("reloaded set disagrees on lang %d key %#x", lang, g)
			}
		}
	}
	// Byte stability: writing the same state twice is identical.
	var again bytes.Buffer
	if _, err := s.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("serialization is not byte-stable")
	}
}

func TestReadBlockedSetRejectsCorruptInput(t *testing.T) {
	s, err := NewBlockedSet(2, 4, 20, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if _, err := s.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   []byte("XXXXrest-of-the-file"),
		"truncated":   full.Bytes()[:full.Len()/3],
		"bad version": append([]byte("NGBK\xff"), full.Bytes()[5:]...),
	}
	for name, data := range cases {
		if _, err := ReadBlockedSet(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadBlockedSet accepted malformed input", name)
		}
	}
}

// TestBlockedSetWriteReadWriteIdentical pins the NGBK bytes across the
// lane transposition: reading a set (block-major on disk, lane-major in
// memory) and writing it again reproduces the file byte for byte, at
// every lane width.
func TestBlockedSetWriteReadWriteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, langs := range []int{1, 8, 9, 16, 17, 32, 33, 64} {
		s, err := NewBlockedSet(langs, 5, 20, 8, int64(langs))
		if err != nil {
			t.Fatal(err)
		}
		for lang := 0; lang < langs; lang++ {
			for i := 0; i < 200; i++ {
				s.Add(lang, rng.Uint32()&0xFFFFF)
			}
		}
		var first bytes.Buffer
		if _, err := s.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBlockedSet(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if _, err := got.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("L=%d: write→read→write changed the NGBK bytes", langs)
		}
		for lang := 0; lang < langs; lang++ {
			if got.PopCount(lang) != s.PopCount(lang) {
				t.Errorf("L=%d lang %d: popcount %d after reload, want %d", langs, lang, got.PopCount(lang), s.PopCount(lang))
			}
		}
	}
}

// TestReadBlockedSetGrowsLanesPastReadBlocks round-trips a set larger
// than the reader's first lane allocation, so the lanes grow while the
// words arrive and every bit still lands in place.
func TestReadBlockedSetGrowsLanesPastReadBlocks(t *testing.T) {
	s, err := NewBlockedSet(3, 4, 20, 4*readBlocks, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for lang := 0; lang < 3; lang++ {
		for i := 0; i < 20000; i++ {
			s.Add(lang, rng.Uint32()&0xFFFFF)
		}
	}
	var first, second bytes.Buffer
	if _, err := s.WriteTo(&first); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlockedSet(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.WriteTo(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("write→read→write changed the NGBK bytes")
	}
}

// TestReadBlockedSetTruncatedHeaderAllocatesLittle feeds a header that
// claims the largest block count but supplies one block of words. The
// read must fail without allocating the 2 GiB lane table the header
// describes.
func TestReadBlockedSetTruncatedHeaderAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(blockedSetMagic)
	hdr := []any{uint8(blockedSetVersion), uint8(4), uint8(20), uint32(maxBlocks), uint32(1), int64(1), uint32(0)}
	for _, v := range hdr {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	buf.Write(make([]byte, BlockWords*8))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadBlockedSet(&buf); err == nil {
		t.Fatal("ReadBlockedSet accepted a set with missing words")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Errorf("truncated read allocated %d MiB; want at most 64", got>>20)
	}
}
