package bloom

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"bloomlang/internal/h3"
)

// Blocked Bloom filters: the software analogue of the paper's
// one-clock membership test. The hardware answers all k hash probes
// for an n-gram in a single cycle because the k bit-vectors are
// physically parallel RAMs (§3.1). A cache-line-blocked filter gets
// the same effect from a memory hierarchy: the first hash selects one
// 512-bit block and the remaining k−1 hashes select bits inside it, so
// the probes of one membership test stay close together.
//
// BlockedSet fuses the filters of all L languages into one structure
// stored lane-major: for each (block, in-block bit) it keeps one L-bit
// language lane word whose bit l is that bit of language l's filter.
// Scoring one n-gram against every language is then one folded hash
// evaluation and the AND of k−1 lane loads — the software mirror of
// the hardware reading its k RAMs once and testing every language
// classifier in the same clock (Figure 1). The serialized NGBK form
// stays block-major (per language, per block, eight 64-bit words), so
// the set is transposed on read and back on write and every filter bit
// keeps its place.

const (
	// BlockBits is the block size: 512 bits = 64 bytes, one x86 cache
	// line (and one DDR burst), the unit the hardware analogy is built
	// on.
	BlockBits = 512
	// BlockWords is the block size in 64-bit words.
	BlockWords = BlockBits / 64
	// blockBitAddr is the hash width that addresses a bit within a
	// block: log2(BlockBits).
	blockBitAddr = 9
	// maxProbes bounds the in-block probe count (k−1); with more than
	// eight probes in 512 bits the filter saturates long before the
	// probe loop is the problem.
	maxProbes = 8
	// maxBlocks bounds the block count a constructor or reader will
	// accept. The lane table takes blocks × 512 × lane-width bytes:
	// at 2^22 blocks, 2 GiB for 8-bit lanes (1–8 languages) up to
	// 16 GiB for 64-bit lanes (33–64 languages).
	maxBlocks = 1 << 22
	// readBlocks is the most blocks ReadBlockedSet allocates lanes for
	// before the stream has supplied their words; past it the table
	// doubles as words arrive, so a header that claims more blocks
	// than the stream holds cannot allocate the full table up front.
	readBlocks = 1 << 12
)

// BlockedSet is the fused blocked Bloom filter of L ≤ MaxLaneLangs
// languages: B blocks of 512 bits per language, with one shared
// block-select hash and k−1 shared in-block bit hashes (all from the
// H3 family, as in the hardware). Sharing the hash functions across
// languages is what makes the lane layout possible: one n-gram maps to
// the same k−1 (block, bit) positions in every language, so one lane
// word per position answers for all of them. Each language's filter
// remains free of false negatives; false positives stay independent
// across languages because each language programs its own bit pattern.
type BlockedSet struct {
	hash   *foldedHash
	lanes  laneStore // blocks × BlockBits lane words
	ns     []int     // per-language programmed element count
	blocks uint32    // power of two ≥ 2
	nLangs int
	k      int
	seed   int64
	inBits uint
}

// NewBlockedSet builds an empty fused filter for langs languages with
// k hash functions (one block selector plus k−1 bit probes) over
// inputBits-wide elements and blocks 512-bit blocks per language.
// blocks must be a power of two so the selector hash addresses blocks
// directly, exactly as the parallel variant addresses its vectors.
// langs may not exceed MaxLaneLangs.
func NewBlockedSet(langs, k int, inputBits uint, blocks uint32, seed int64) (*BlockedSet, error) {
	return newBlockedSet(langs, k, inputBits, blocks, seed, blocks)
}

// newBlockedSet is NewBlockedSet with lanes allocated for only the
// first alloc blocks; the reader grows the rest as words arrive.
func newBlockedSet(langs, k int, inputBits uint, blocks uint32, seed int64, alloc uint32) (*BlockedSet, error) {
	laneBits, err := LaneBits(langs)
	if err != nil {
		return nil, err
	}
	if k < 2 || k > 1+maxProbes {
		return nil, fmt.Errorf("bloom: blocked filter needs k in [2,%d] (one block-select hash plus k-1 bit probes), got k=%d", 1+maxProbes, k)
	}
	if blocks < 2 || blocks&(blocks-1) != 0 {
		return nil, fmt.Errorf("bloom: block count %d is not a power of two >= 2", blocks)
	}
	if blocks > maxBlocks {
		return nil, fmt.Errorf("bloom: block count %d exceeds %d", blocks, maxBlocks)
	}
	addrBits := uint(bits.TrailingZeros32(blocks))
	selFam, err := h3.NewFamily(1, inputBits, addrBits, seed)
	if err != nil {
		return nil, err
	}
	probeFam, err := h3.NewFamily(k-1, inputBits, blockBitAddr, seed+0x9E3779B9)
	if err != nil {
		return nil, err
	}
	probes := make([]*h3.Func, k-1)
	for i := range probes {
		probes[i] = probeFam.Func(i)
	}
	return &BlockedSet{
		hash:   foldHashes(selFam.Func(0), probes, addrBits),
		lanes:  newLaneStore(laneBits, int(min(alloc, blocks))*BlockBits),
		ns:     make([]int, langs),
		blocks: blocks,
		nLangs: langs,
		k:      k,
		seed:   seed,
		inBits: inputBits,
	}, nil
}

// foldedHash is the block selector and the k−1 in-block probe hashes
// folded into one H3 evaluation. H3 is linear over GF(2), so
// concatenating the outputs of several members is itself an H3 hash:
// one byte-table with packed 64-bit entries yields every hash of an
// n-gram from four lookups instead of 4k, with the same hash values
// bit for bit. The packing is laid out for the scoring loop: probe 0
// in the low 9 bits and the selector right above it, so one AND gives
// the block's base lane and another probe 0's bit in it; probes
// 1..split−1 are packed downwards from the top bit, so a constant
// 9-bit left rotation brings each in turn to the low bits. Probes that
// do not fit in the word (large k with many blocks) go to a second
// table, 9 bits each from the bottom.
type foldedHash struct {
	lo     [4][256]uint64
	hi     *[4][256]uint64 // probes split.. when split < probes
	base   uint64          // selector bits: h&base is the block's first lane
	probes int             // k−1
	split  int             // probes packed into lo
}

func foldHashes(sel *h3.Func, probes []*h3.Func, selBits uint) *foldedHash {
	f := &foldedHash{
		base:   (1<<selBits - 1) << blockBitAddr,
		probes: len(probes),
		split:  min(len(probes), int(64-selBits)/blockBitAddr),
	}
	if f.split < f.probes {
		f.hi = new([4][256]uint64)
	}
	// By linearity, entry [c][v] is the hash of byte v placed at byte
	// position c, and a word's hash is the XOR of its four bytes'.
	for c := 0; c < 4; c++ {
		for v := 0; v < 256; v++ {
			x := uint32(v) << (8 * c)
			f.lo[c][v] = uint64(sel.Hash(x)) << blockBitAddr
			for p, pf := range probes {
				h := uint64(pf.Hash(x))
				switch {
				case p == 0:
					f.lo[c][v] |= h
				case p < f.split:
					f.lo[c][v] |= h << (64 - uint(p)*blockBitAddr)
				default:
					f.hi[c][v] |= h << (uint(p-f.split) * blockBitAddr)
				}
			}
		}
	}
	return f
}

// probeLanes writes the lane index (block·BlockBits + in-block bit) of
// each of g's k−1 probes into dst and returns them.
func (f *foldedHash) probeLanes(dst *[maxProbes]uint, g uint32) []uint {
	b0, b1, b2, b3 := g&0xFF, g>>8&0xFF, g>>16&0xFF, g>>24
	h := f.lo[0][b0] ^ f.lo[1][b1] ^ f.lo[2][b2] ^ f.lo[3][b3]
	base := uint(h & f.base)
	dst[0] = base | uint(h)&(BlockBits-1)
	for p := 1; p < f.split; p++ {
		h = bits.RotateLeft64(h, blockBitAddr)
		dst[p] = base | uint(h)&(BlockBits-1)
	}
	if f.hi != nil {
		h = f.hi[0][b0] ^ f.hi[1][b1] ^ f.hi[2][b2] ^ f.hi[3][b3]
		for p := f.split; p < f.probes; p++ {
			dst[p] = base | uint(h)&(BlockBits-1)
			h >>= blockBitAddr
		}
	}
	return dst[:f.probes]
}

// laneStore holds a BlockedSet's lane words at the width its language
// count needs; laneTable is the only implementation, instantiated per
// width. Only the scoring kernel is specialized per width; everything
// else reads and sets lanes through lane and or.
type laneStore interface {
	accumulate(counts []int, gs []uint32, f *foldedHash)
	addAll(bit uint64, gs []uint32, f *foldedHash)
	lane(i uint) uint64
	or(i uint, bits uint64)
	reset()
	len() int
	grow(n int) laneStore // the table extended to n zero-filled lanes
}

func newLaneStore(laneBits, n int) laneStore {
	switch laneBits {
	case 8:
		return make(laneTable[uint8], n)
	case 16:
		return make(laneTable[uint16], n)
	case 32:
		return make(laneTable[uint32], n)
	}
	return make(laneTable[uint64], n)
}

// laneTable is one lane word per (block, in-block bit), block-major.
type laneTable[T Lane] []T

// accumulate is the fused scoring kernel: each n-gram's hit mask is
// the AND of its k−1 lane words, and each chunk of masks is counted by
// the byte-lane vertical counter.
func (t laneTable[T]) accumulate(counts []int, gs []uint32, f *foldedHash) {
	var masks [MaskChunk]T
	for len(gs) > 0 {
		n := min(len(gs), MaskChunk)
		hitMasks(t, masks[:n], gs[:n], f)
		CountMasks(counts, masks[:n])
		gs = gs[n:]
	}
}

// hitMasks sets masks[i] to the AND of gs[i]'s k−1 lane words. It is
// probeLanes inlined by hand: this loop is where scoring time goes.
// The first probe is peeled, so the mask starts from a load rather
// than all ones, and each further probe is one constant rotation away,
// so the loop holds no shift count and the mask stays in a register
// across the probes.
func hitMasks[T Lane](t []T, masks []T, gs []uint32, f *foldedHash) {
	lo := &f.lo
	baseMask, split := f.base, f.split
	masks = masks[:len(gs)]
	for i, g := range gs {
		h := lo[0][g&0xFF] ^ lo[1][g>>8&0xFF] ^ lo[2][g>>16&0xFF] ^ lo[3][g>>24]
		base := uint(h & baseMask)
		m := t[base|uint(h)&(BlockBits-1)]
		for p := 1; p < split; p++ {
			h = bits.RotateLeft64(h, blockBitAddr)
			m &= t[base|uint(h)&(BlockBits-1)]
		}
		masks[i] = m
	}
	if f.hi == nil {
		return
	}
	// The probes that did not fit beside the selector in one word.
	var idx [maxProbes]uint
	for i, g := range gs {
		for _, li := range f.probeLanes(&idx, g)[split:] {
			masks[i] &= t[li]
		}
	}
}

// addAll sets bit in the k−1 lane words of every n-gram of gs: the
// bulk form of BlockedSet.Add, one interface call per profile rather
// than per probe.
func (t laneTable[T]) addAll(bit uint64, gs []uint32, f *foldedHash) {
	var idx [maxProbes]uint
	for _, g := range gs {
		for _, li := range f.probeLanes(&idx, g) {
			t[li] |= T(bit)
		}
	}
}

func (t laneTable[T]) lane(i uint) uint64     { return uint64(t[i]) }
func (t laneTable[T]) or(i uint, bits uint64) { t[i] |= T(bits) }
func (t laneTable[T]) reset()                 { clear(t) }
func (t laneTable[T]) len() int               { return len(t) }
func (t laneTable[T]) grow(n int) laneStore   { return slices.Grow(t, n-len(t))[:n] }

// Langs returns the number of fused languages.
func (s *BlockedSet) Langs() int { return s.nLangs }

// K returns the number of hash functions (block selector included).
func (s *BlockedSet) K() int { return s.k }

// Blocks returns the per-language block count.
func (s *BlockedSet) Blocks() uint32 { return s.blocks }

// BitsPerLanguage returns one language's filter size in bits.
func (s *BlockedSet) BitsPerLanguage() uint64 { return uint64(s.blocks) * BlockBits }

// N returns the number of elements programmed into language lang.
func (s *BlockedSet) N(lang int) int { return s.ns[lang] }

// Seed returns the construction seed, for serialization.
func (s *BlockedSet) Seed() int64 { return s.seed }

// InputBits returns the hash input width, for serialization.
func (s *BlockedSet) InputBits() uint { return s.inBits }

// Add programs element g into language lang's filter: the selector
// hash picks the block, every probe hash sets one bit inside it.
func (s *BlockedSet) Add(lang int, g uint32) {
	var idx [maxProbes]uint
	for _, li := range s.hash.probeLanes(&idx, g) {
		s.lanes.or(li, 1<<lang)
	}
	s.ns[lang]++
}

// AddAll programs every element of gs into language lang.
func (s *BlockedSet) AddAll(lang int, gs []uint32) {
	s.lanes.addAll(1<<lang, gs, s.hash)
	s.ns[lang] += len(gs)
}

// Test reports whether g may be a member of language lang's filter. A
// true result may be a false positive; a false result is definitive —
// Add sets exactly the bits Test probes, so the filter never produces
// a false negative.
func (s *BlockedSet) Test(lang int, g uint32) bool {
	var idx [maxProbes]uint
	for _, li := range s.hash.probeLanes(&idx, g) {
		if s.lanes.lane(li)>>lang&1 == 0 {
			return false
		}
	}
	return true
}

// AccumulateInto is the fused scoring kernel: for every n-gram in gs
// it tests all L languages at once — one folded hash, the AND of k−1
// lane words — and adds each language's match count into counts
// (len >= Langs). It allocates nothing.
func (s *BlockedSet) AccumulateInto(counts []int, gs []uint32) {
	s.lanes.accumulate(counts[:s.nLangs], gs, s.hash)
}

// Reset clears every language's filter and programmed-element count.
func (s *BlockedSet) Reset() {
	s.lanes.reset()
	clear(s.ns)
}

// PopCount returns the number of set bits in language lang's filter.
func (s *BlockedSet) PopCount(lang int) int {
	n := 0
	for i := uint(0); i < uint(s.blocks)*BlockBits; i++ {
		n += int(s.lanes.lane(i) >> lang & 1)
	}
	return n
}

// blockWords writes block b in the NGBK block-major layout:
// dst[lang·BlockWords + w] is word w of language lang's block.
func (s *BlockedSet) blockWords(dst []uint64, b int) {
	clear(dst)
	for i := 0; i < BlockBits; i++ {
		for m := s.lanes.lane(uint(b*BlockBits + i)); m != 0; m &= m - 1 {
			dst[bits.TrailingZeros64(m)*BlockWords+i>>6] |= 1 << (i & 63)
		}
	}
}

// setBlockWords ORs block b into the lanes from the NGBK block-major
// layout of blockWords.
func (s *BlockedSet) setBlockWords(b int, src []uint64) {
	for j, w := range src {
		lang, word := j/BlockWords, j%BlockWords
		for ; w != 0; w &= w - 1 {
			s.lanes.or(uint(b*BlockBits+word<<6+bits.TrailingZeros64(w)), 1<<lang)
		}
	}
}

// modelM is the per-probe bit budget the §3.1 parallel model sees:
// the language's total bits split evenly across the k−1 probes.
func (s *BlockedSet) modelM() uint32 {
	return uint32(s.BitsPerLanguage() / uint64(s.k-1))
}

// FalsePositiveRate returns the expected false positive rate of
// language lang's filter under the paper's §3.1 parallel-variant
// model f = (1 − e^(−N/m))^k applied with k−1 probes and
// m = totalBits/(k−1). The uniform model is exact for the parallel
// filter; blocking adds a small penalty from the Poisson spread of
// elements across blocks, which BlocksForTarget's safety factor
// absorbs.
func (s *BlockedSet) FalsePositiveRate(lang int) float64 {
	return FalsePositiveRate(s.ns[lang], s.modelM(), s.k-1)
}

// blockSafety discounts the FPR target BlocksForTarget sizes for, to
// absorb the load-variance penalty of blocking (uneven block
// occupancy makes the realized rate exceed the uniform model).
const blockSafety = 0.7

// BlocksForTarget returns the smallest power-of-two block count whose
// modelled false positive rate at load n with k total hashes (k−1
// in-block probes) does not exceed target, with blockSafety headroom
// for the blocking penalty. The result is clamped to [2, maxBlocks].
func BlocksForTarget(n, k int, target float64) uint32 {
	j := k - 1
	if j < 1 {
		j = 1
	}
	blocks := uint32(2)
	t := target * blockSafety
	if n <= 0 || t <= 0 || t >= 1 {
		return blocks
	}
	perProbe := math.Pow(t, 1/float64(j))
	if perProbe >= 1 {
		return blocks
	}
	// (1 − e^(−j·n/T))^j ≤ t  ⇔  T ≥ −j·n / ln(1 − t^(1/j))
	minBits := -float64(j) * float64(n) / math.Log(1-perProbe)
	for float64(blocks)*BlockBits < minBits && blocks < maxBlocks {
		blocks <<= 1
	}
	return blocks
}

// Blocked is a single-language cache-line-blocked Bloom filter: the
// BlockedSet structure with L=1, for standalone use and for the
// property tests that pin the false-positive model.
type Blocked struct {
	set *BlockedSet
}

// NewBlocked builds an empty blocked filter with k hash functions
// (one block selector plus k−1 bit probes) over inputBits-wide
// elements and blocks 512-bit blocks (a power of two ≥ 2).
func NewBlocked(k int, inputBits uint, blocks uint32, seed int64) (*Blocked, error) {
	set, err := NewBlockedSet(1, k, inputBits, blocks, seed)
	if err != nil {
		return nil, err
	}
	return &Blocked{set: set}, nil
}

// K returns the number of hash functions (block selector included).
func (b *Blocked) K() int { return b.set.K() }

// Blocks returns the block count.
func (b *Blocked) Blocks() uint32 { return b.set.Blocks() }

// Bits returns the filter size in bits.
func (b *Blocked) Bits() uint64 { return b.set.BitsPerLanguage() }

// N returns the number of programmed elements.
func (b *Blocked) N() int { return b.set.N(0) }

// Add programs element g.
func (b *Blocked) Add(g uint32) { b.set.Add(0, g) }

// AddAll programs every element of gs.
func (b *Blocked) AddAll(gs []uint32) { b.set.AddAll(0, gs) }

// Test reports possible membership of g (never a false negative).
func (b *Blocked) Test(g uint32) bool { return b.set.Test(0, g) }

// Reset clears the filter.
func (b *Blocked) Reset() { b.set.Reset() }

// PopCount returns the number of set bits.
func (b *Blocked) PopCount() int { return b.set.PopCount(0) }

// FalsePositiveRate returns the modelled false positive rate at
// current load; see (*BlockedSet).FalsePositiveRate.
func (b *Blocked) FalsePositiveRate() float64 { return b.set.FalsePositiveRate(0) }

// Blocked-set serialization: the programmed bits are a pure function
// of (seed, k, inputBits, blocks, insertion multiset), so the format
// records the construction parameters, the per-language counts, and
// the raw words. Writing the same set twice produces identical bytes.
//
//	magic "NGBK" | version u8 | k u8 | inputBits u8 | blocks u32 |
//	langs u32 | seed i64 | langs × n u32 | blocks·langs·8 × word u64
const (
	blockedSetMagic   = "NGBK"
	blockedSetVersion = 1
)

// WriteTo serializes the set in the NGBK binary format.
func (s *BlockedSet) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	if _, err := bw.WriteString(blockedSetMagic); err != nil {
		return written, err
	}
	written += int64(len(blockedSetMagic))
	put := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		written += int64(binary.Size(data))
		return nil
	}
	if err := put(uint8(blockedSetVersion)); err != nil {
		return written, err
	}
	if err := put(uint8(s.k)); err != nil {
		return written, err
	}
	if err := put(uint8(s.inBits)); err != nil {
		return written, err
	}
	if err := put(s.blocks); err != nil {
		return written, err
	}
	if err := put(uint32(s.nLangs)); err != nil {
		return written, err
	}
	if err := put(s.seed); err != nil {
		return written, err
	}
	ns := make([]uint32, len(s.ns))
	for i, n := range s.ns {
		ns[i] = uint32(n)
	}
	if err := put(ns); err != nil {
		return written, err
	}
	// The words go out block-major, transposed back from the lanes one
	// block at a time.
	words := make([]uint64, s.nLangs*BlockWords)
	for b := 0; b < int(s.blocks); b++ {
		s.blockWords(words, b)
		if err := put(words); err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// ReadBlockedSet deserializes a set written by WriteTo.
func ReadBlockedSet(r io.Reader) (*BlockedSet, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(blockedSetMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("bloom: reading blocked set magic: %w", err)
	}
	if string(magic) != blockedSetMagic {
		return nil, fmt.Errorf("bloom: bad blocked set magic %q, want %q", magic, blockedSetMagic)
	}
	var hdr struct {
		Version   uint8
		K         uint8
		InputBits uint8
		Blocks    uint32
		Langs     uint32
		Seed      int64
	}
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("bloom: reading blocked set header: %w", err)
	}
	if hdr.Version != blockedSetVersion {
		return nil, fmt.Errorf("bloom: unsupported blocked set version %d", hdr.Version)
	}
	if _, err := LaneBits(int(hdr.Langs)); err != nil {
		return nil, fmt.Errorf("bloom: blocked set header: %w", err)
	}
	s, err := newBlockedSet(int(hdr.Langs), int(hdr.K), uint(hdr.InputBits), hdr.Blocks, hdr.Seed, readBlocks)
	if err != nil {
		return nil, fmt.Errorf("bloom: blocked set header invalid: %w", err)
	}
	for i := range s.ns {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("bloom: reading blocked set counts: %w", err)
		}
		s.ns[i] = int(n)
	}
	words := make([]uint64, s.nLangs*BlockWords)
	for b := 0; b < int(s.blocks); b++ {
		if err := binary.Read(br, binary.LittleEndian, words); err != nil {
			return nil, fmt.Errorf("bloom: reading blocked set words: %w", err)
		}
		if n := s.lanes.len(); (b+1)*BlockBits > n {
			s.lanes = s.lanes.grow(min(2*n, int(s.blocks)*BlockBits))
		}
		s.setBlockWords(b, words)
	}
	return s, nil
}
