package bloom

import "fmt"

// Language lanes: the software form of the paper's one-clock,
// all-languages membership test (Figure 1, §3.2). A fused kernel turns
// one n-gram into one L-bit hit mask — bit l set when language l's
// structure accepts the n-gram — and a vertical counter adds the masks
// of a whole chunk into per-language counts. This is the bit-sliced
// signature layout of BitFunnel (Goodwin et al., SIGIR 2017) applied to
// language identification.

// MaxLaneLangs is the language count a fused lane kernel holds: one
// bit per language in a 64-bit lane word. Larger inventories use the
// per-language parallel-bloom backend.
const MaxLaneLangs = 64

// Lane is a language lane word: bit l is language l. Kernels pick the
// narrowest width that holds every language, so memory scales with L.
type Lane interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// LaneBits returns the lane width, in bits, for langs languages: langs
// rounded up to 8, 16, 32 or 64. It fails for more than MaxLaneLangs
// languages with an error naming the backend that has no such limit.
func LaneBits(langs int) (int, error) {
	switch {
	case langs < 1:
		return 0, fmt.Errorf("bloom: lane kernel needs at least one language, got %d", langs)
	case langs <= 8:
		return 8, nil
	case langs <= 16:
		return 16, nil
	case langs <= 32:
		return 32, nil
	case langs <= MaxLaneLangs:
		return 64, nil
	}
	return 0, fmt.Errorf("bloom: %d languages exceed the fused lane kernels' limit of %d; use the parallel-bloom backend for larger inventories", langs, MaxLaneLangs)
}

// MaskChunk is the most masks CountMasks takes per call: a byte lane
// counts to 255 before it would wrap.
const MaskChunk = 255

// spread maps a byte of a hit mask to eight byte lanes: byte i of
// spread[b] is bit i of b. Adding spread[b] to a counter word adds one
// to each language whose bit is set, with no branch per language.
var spread = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// CountMasks adds each language's hit count over masks into counts
// (bit l of a mask counts for counts[l]; len(counts) is the language
// count). It is a byte-lane vertical counter: eight languages share a
// 64-bit counter word, one spread-table add per mask byte, and the
// words are flushed into counts once at the end. len(masks) must not
// exceed MaskChunk, so no byte lane can overflow before the flush.
func CountMasks[T Lane](counts []int, masks []T) {
	if len(masks) > MaskChunk {
		panic("bloom: CountMasks chunk exceeds MaskChunk")
	}
	// Up to 16 languages (the paper's ten included) the counter words
	// live in locals, so each add is a register dependency rather than
	// a store-to-load round trip. With 8 or fewer languages the second
	// word only ever adds spread[0] = 0 and is never flushed.
	var a [MaxLaneLangs / 8]uint64
	switch nb := (len(counts) + 7) / 8; nb {
	case 1, 2:
		var a0, a1 uint64
		for _, m := range masks {
			v := uint64(m)
			a0 += spread[uint8(v)]
			a1 += spread[uint8(v>>8)]
		}
		a[0], a[1] = a0, a1
	default:
		for _, m := range masks {
			v := uint64(m)
			for c := range nb {
				a[c] += spread[uint8(v>>(8*c))]
			}
		}
	}
	for l := range counts {
		counts[l] += int(uint8(a[l>>3] >> (8 * (l & 7))))
	}
}
