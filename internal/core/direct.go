package core

import (
	"math/bits"

	"bloomlang/internal/bloom"
	"bloomlang/internal/ngram"
)

// directMasks is HAIL's direct lookup table (exact membership, the
// software equivalent of its off-chip SRAM table) in fused, rank-indexed
// form: one union bitset over the packed n-gram space marks every
// n-gram some profile holds, a per-word rank directory turns a set bit
// into a dense index, and that index selects the n-gram's L-bit
// language mask. Scoring one n-gram against every language is one
// bitset probe, one popcount and one mask load, and memory grows with
// the distinct profile n-grams instead of with L full-space bitsets.
type directMasks[T bloom.Lane] struct {
	bits []uint64
	// rank[w] is 1 + the set bits in bits[:w]: the mask index of the
	// first member n-gram in word w. Index 0 is the empty mask every
	// non-member n-gram reads.
	rank  []uint32
	masks []T
	langs int
}

// buildDirectLookup is HAIL's design as a fused kernel over the whole
// profile set.
func buildDirectLookup(cfg Config, ps *ProfileSet) (Kernel, error) {
	laneBits, err := bloom.LaneBits(len(ps.Profiles))
	if err != nil {
		return nil, err
	}
	nBits := ngram.Bits(cfg.N)
	switch laneBits {
	case 8:
		return newDirectMasks[uint8](nBits, ps.Profiles), nil
	case 16:
		return newDirectMasks[uint16](nBits, ps.Profiles), nil
	case 32:
		return newDirectMasks[uint32](nBits, ps.Profiles), nil
	}
	return newDirectMasks[uint64](nBits, ps.Profiles), nil
}

func newDirectMasks[T bloom.Lane](nBits uint, profiles []*ngram.Profile) *directMasks[T] {
	words := (uint64(1)<<nBits + 63) / 64
	t := &directMasks[T]{bits: make([]uint64, words), rank: make([]uint32, words), langs: len(profiles)}
	for _, p := range profiles {
		for _, g := range p.Grams {
			t.bits[g>>6] |= 1 << (g & 63)
		}
	}
	n := uint32(1)
	for w, b := range t.bits {
		t.rank[w] = n
		n += uint32(bits.OnesCount64(b))
	}
	t.masks = make([]T, n)
	for lang, p := range profiles {
		for _, g := range p.Grams {
			t.masks[t.index(g)] |= 1 << lang
		}
	}
	return t
}

// index returns g's mask index: its dense rank among member n-grams,
// or 0 when no profile holds g. It is branch-free.
func (t *directMasks[T]) index(g uint32) uint32 {
	w := t.bits[g>>6]
	bit := g & 63
	below := uint32(bits.OnesCount64(w & (1<<bit - 1)))
	return (t.rank[g>>6] + below) * uint32(w>>bit&1)
}

// AccumulateInto adds each language's match count over gs into counts,
// one language mask per n-gram counted by the byte-lane vertical
// counter. It allocates nothing.
func (t *directMasks[T]) AccumulateInto(counts []int, gs []uint32) {
	var masks [bloom.MaskChunk]T
	counts = counts[:t.langs]
	for len(gs) > 0 {
		n := min(len(gs), bloom.MaskChunk)
		for i, g := range gs[:n] {
			masks[i] = t.masks[t.index(g)]
		}
		bloom.CountMasks(counts, masks[:n])
		gs = gs[n:]
	}
}

// Test reports whether language lang's profile holds g.
func (t *directMasks[T]) Test(lang int, g uint32) bool {
	return t.masks[t.index(g)]>>lang&1 != 0
}
