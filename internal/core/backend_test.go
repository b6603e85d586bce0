package core

import (
	"slices"
	"strings"
	"testing"
)

// TestBackendStringParseRoundTrip pins the registry contract the CLIs
// rely on: every registered backend's String() parses back to itself,
// and the historical aliases keep working.
func TestBackendStringParseRoundTrip(t *testing.T) {
	for _, b := range []Backend{BackendBloom, BackendDirect, BackendClassic, BackendBlocked} {
		got, err := ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Errorf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	aliases := map[string]Backend{
		"bloom":   BackendBloom,
		"direct":  BackendDirect,
		"classic": BackendClassic,
		"blocked": BackendBlocked,
	}
	for name, want := range aliases {
		got, err := ParseBackend(name)
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseBackend(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestParseBackendUnknownNameListsChoices(t *testing.T) {
	_, err := ParseBackend("fpga")
	if err == nil {
		t.Fatal("ParseBackend accepted an unknown name")
	}
	if !strings.Contains(err.Error(), "parallel-bloom") {
		t.Errorf("error %q does not list known backends", err)
	}
}

func TestBackendsListsCanonicalNames(t *testing.T) {
	names := Backends()
	want := map[string]bool{"parallel-bloom": false, "direct-lookup": false, "classic-bloom": false, "blocked-bloom": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("Backends() = %v is missing %q", names, n)
		}
	}
}

func TestBackendStringUnregisteredValue(t *testing.T) {
	if got := Backend(9999).String(); got != "backend(9999)" {
		t.Errorf("String() = %q", got)
	}
	if _, err := New(&ProfileSet{Config: DefaultConfig(), Profiles: trainMini(t, Config{TopT: 500}).Profiles}, Backend(9999)); err == nil {
		t.Error("New accepted an unregistered backend")
	}
}

// exactSets is a third-party-style backend: exact membership from one
// Go map per language, scored by walking languages×grams. It exists
// only to prove that any Kernel plugs in through the registry.
type exactSets []map[uint32]bool

func (e exactSets) AccumulateInto(counts []int, gs []uint32) {
	for l, set := range e {
		for _, g := range gs {
			if set[g] {
				counts[l]++
			}
		}
	}
}

func (e exactSets) Test(lang int, g uint32) bool { return e[lang][g] }

// The custom backend registers at init, as a third-party package
// would, and joins equivBackends, so every equivalence gate — Detect,
// DetectBatchCounts, Rank, Stream and SpanStream against the
// referenceCounts walk of its own Test — runs on it too.
func init() {
	equivBackends = append(equivBackends, RegisterBackend("test-exact-sets", func(cfg Config, ps *ProfileSet) (Kernel, error) {
		e := make(exactSets, len(ps.Profiles))
		for i, p := range ps.Profiles {
			e[i] = p.Set()
		}
		return e, nil
	}, "exact-sets"))
}

func TestRegisterBackendExtendsClassifier(t *testing.T) {
	b, err := ParseBackend("exact-sets")
	if err != nil || b.String() != "test-exact-sets" {
		t.Fatalf("ParseBackend(alias) = %v, %v", b, err)
	}
	ps := trainMini(t, Config{TopT: 500})
	det, err := NewDetector(ps, WithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	if det.Classifier().Filter(0) != nil {
		t.Error("custom backend exposed a parallel bloom filter")
	}
	// Exact membership: the counts equal the direct lookup table's.
	direct, err := NewDetector(ps, WithBackend(BackendDirect))
	if err != nil {
		t.Fatal(err)
	}
	got, want := make([]int, len(det.Languages())), make([]int, len(det.Languages()))
	doc := getMiniCorpus(t).Test["fi"][0].Text
	if m, dm := det.DetectCounts(doc, got), direct.DetectCounts(doc, want); m != dm || !slices.Equal(got, want) {
		t.Errorf("custom backend %+v %v, direct %+v %v", m, got, dm, want)
	}
}

// rejectAll is a fused kernel that matches nothing — it exists only to
// prove a kernel scoring all languages in one pass plugs in through the
// registry without a per-language membership structure behind it.
type rejectAll struct{}

func (rejectAll) AccumulateInto([]int, []uint32) {}
func (rejectAll) Test(int, uint32) bool          { return false }

func TestRegisterFusedBackendExtendsClassifier(t *testing.T) {
	b := RegisterBackend("test-reject-all", func(cfg Config, ps *ProfileSet) (Kernel, error) {
		return rejectAll{}, nil
	}, "reject")
	if got, err := ParseBackend("reject"); err != nil || got != b {
		t.Fatalf("ParseBackend(alias) = %v, %v", got, err)
	}
	ps := trainMini(t, Config{TopT: 500})
	det, err := NewDetector(ps, WithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("fused registrations must flow through the same registry")
	m := det.Detect(doc)
	// Nothing matches anything: zero counts everywhere, tie broken to
	// the first language with score 0.
	if m.Count != 0 || m.Score != 0 || m.NGrams == 0 {
		t.Errorf("reject-all detect = %+v", m)
	}
}

func TestBlockedBackendRejectsSingleHash(t *testing.T) {
	ps := trainMini(t, Config{TopT: 500})
	single := &ProfileSet{Config: ps.Config, Profiles: ps.Profiles}
	single.Config.K = 1
	if _, err := New(single, BackendBlocked); err == nil {
		t.Error("blocked backend accepted k=1 (no bit probes left after block select)")
	}
}

func TestRegisterBackendRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	RegisterBackend("parallel-bloom", func(cfg Config, ps *ProfileSet) (Kernel, error) {
		return exactSets{}, nil
	})
}
