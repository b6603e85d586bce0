package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestProfileSetRoundTrip(t *testing.T) {
	cfg := Config{N: 4, TopT: 800, K: 6, MBits: 8 * 1024, Seed: 42, Subsample: 2}
	ps := trainMini(t, cfg)

	var buf bytes.Buffer
	n, err := ps.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadProfileSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != ps.Config {
		t.Errorf("config round-trip: got %+v, want %+v", got.Config, ps.Config)
	}
	if len(got.Profiles) != len(ps.Profiles) {
		t.Fatalf("got %d profiles, want %d", len(got.Profiles), len(ps.Profiles))
	}
	for i, p := range ps.Profiles {
		q := got.Profiles[i]
		if q.Language != p.Language || q.N != p.N || !reflect.DeepEqual(q.Grams, p.Grams) {
			t.Errorf("profile %q did not round-trip", p.Language)
		}
	}
}

func TestProfileSetRoundTripProducesIdenticalClassifier(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000, Seed: 9})
	var buf bytes.Buffer
	if _, err := ps.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadProfileSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := New(ps, BackendBloom)
	if err != nil {
		t.Fatal(err)
	}
	fromDisk, err := New(loaded, BackendBloom)
	if err != nil {
		t.Fatal(err)
	}
	for _, lang := range []string{"en", "es", "fi", "pt"} {
		doc := getMiniCorpus(t).Test[lang][0].Text
		a, b := classify(orig, doc), classify(fromDisk, doc)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: classifier from reloaded profiles disagrees: %+v vs %+v", lang, a, b)
		}
	}
}

func TestProfileSetSaveLoadFile(t *testing.T) {
	ps := trainMini(t, Config{TopT: 500})
	path := filepath.Join(t.TempDir(), "profiles.bin")
	if err := ps.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfileSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != ps.Config || len(got.Profiles) != len(ps.Profiles) {
		t.Errorf("file round-trip mismatch: %+v", got.Config)
	}
}

func TestReadProfileSetLegacyFormat(t *testing.T) {
	// Bare concatenated NGPF records, as older cmd/langid train wrote.
	ps := trainMini(t, Config{TopT: 300})
	var buf bytes.Buffer
	for _, p := range ps.Profiles {
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadProfileSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Profiles) != len(ps.Profiles) {
		t.Fatalf("legacy read: got %d profiles, want %d", len(got.Profiles), len(ps.Profiles))
	}
	if got.Config.N != ps.Config.N {
		t.Errorf("legacy read: config n=%d, want %d", got.Config.N, ps.Config.N)
	}
	for i, p := range ps.Profiles {
		if !reflect.DeepEqual(got.Profiles[i].Grams, p.Grams) {
			t.Errorf("legacy profile %q did not round-trip", p.Language)
		}
	}
}

func TestProfileSetBlockedLayoutRoundTrip(t *testing.T) {
	ps := trainMini(t, Config{TopT: 400, Seed: 3})
	var buf bytes.Buffer
	n, err := ps.WriteToBlocked(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteToBlocked reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadProfileSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.HasBlockedLayout() {
		t.Fatal("v2 file round-trip dropped the blocked layout")
	}
	// A classifier built from the embedded layout matches one built by
	// re-programming the filters from the profiles.
	fresh := trainMini(t, Config{TopT: 400, Seed: 3})
	want, err := New(fresh, BackendBlocked)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(loaded, BackendBlocked)
	if err != nil {
		t.Fatal(err)
	}
	for _, lang := range []string{"en", "es", "fi", "pt"} {
		doc := getMiniCorpus(t).Test[lang][0].Text
		a, b := classify(want, doc), classify(got, doc)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: classifier from embedded layout disagrees: %+v vs %+v", lang, a, b)
		}
	}
	// Byte stability: serializing the same trained state twice is
	// bit-identical (the layout is a pure function of config+profiles).
	var again bytes.Buffer
	if _, err := fresh.WriteToBlocked(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("WriteToBlocked is not byte-stable across identical trained sets")
	}
	// The v1 writer remains byte-stable and layout-free.
	var v1 bytes.Buffer
	if _, err := ps.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	plain, err := ReadProfileSet(&v1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.HasBlockedLayout() {
		t.Error("v1 file claims a blocked layout")
	}
}

func TestReadProfileSetRejectsInconsistentBlockedLayout(t *testing.T) {
	ps := trainMini(t, Config{TopT: 400})
	layout, err := ps.blockedLayout()
	if err != nil {
		t.Fatal(err)
	}
	// Splice the layout onto a set trained under a different seed: the
	// hash matrices disagree, so the reader must refuse.
	other := trainMini(t, Config{TopT: 400, Seed: 1234})
	var buf bytes.Buffer
	if _, err := other.writeTo(&buf, layout); err != nil {
		t.Fatal(err)
	}
	_, err = ReadProfileSet(&buf)
	if err == nil {
		t.Fatal("inconsistent embedded layout accepted")
	}
	if !errors.Is(err, ErrCorruptProfiles) {
		t.Errorf("error %v is not tagged ErrCorruptProfiles", err)
	}
}

// TestReadProfileSetCorruptInputs pins the actionable-error contract:
// every malformed input fails with a wrapped ErrCorruptProfiles whose
// message names the structure that failed to parse, instead of a raw
// binary-read error.
func TestReadProfileSetCorruptInputs(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	var v1 bytes.Buffer
	if _, err := ps.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if _, err := ps.WriteToBlocked(&v2); err != nil {
		t.Fatal(err)
	}
	hugeCfgLen := append([]byte("NGPS\x01"), []byte{0xff, 0xff, 0xff, 0xff}...)
	cases := []struct {
		name string
		data []byte
		want string // substring the actionable message must contain
	}{
		{"empty input", nil, "truncated"},
		{"three-byte file", []byte("NGP"), "NGPS magic"},
		{"garbage without magic", []byte("this is not a profile file at all"), "neither an NGPS profile set nor a legacy NGPF"},
		{"header cut after magic", []byte("NGPS"), "truncated after the magic"},
		{"header cut in config length", []byte("NGPS\x01\x10"), "config length"},
		{"config length overflow", hugeCfgLen, "refusing"},
		{"config truncated", append([]byte("NGPS\x01"), 0x10, 0, 0, 0, '{'), "config truncated"},
		{"config not JSON", append([]byte("NGPS\x01"), 0x02, 0, 0, 0, 'h', 'i'), "not valid JSON"},
		{"cut before profile count", v1.Bytes()[:bytes.IndexByte(v1.Bytes(), '}')+1], "profile count"},
		{"profile record truncated", v1.Bytes()[:v1.Len()-10], "reading profile"},
		{"blocked section truncated", v2.Bytes()[:v2.Len()-64], "blocked"},
		{"blocked flag invalid", flipBlockedFlag(t, v1.Bytes(), v2.Bytes()), "blocked-layout flag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadProfileSet(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if !errors.Is(err, ErrCorruptProfiles) {
				t.Errorf("error %v is not tagged ErrCorruptProfiles", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// An unsupported version is a version error, not corruption.
	bumped := append([]byte("NGPS\x07"), v1.Bytes()[5:]...)
	_, err := ReadProfileSet(bytes.NewReader(bumped))
	if err == nil || !strings.Contains(err.Error(), "version 7") {
		t.Errorf("version bump error = %v, want an unsupported-version message", err)
	}
}

// flipBlockedFlag rebuilds the v2 stream with an out-of-range
// blocked-layout flag: the v1 profile payload followed by flag 9.
func flipBlockedFlag(t *testing.T, v1 []byte, v2 []byte) []byte {
	t.Helper()
	out := append([]byte(nil), v2[:len(v1)]...)
	out[4] = 2 // version byte
	return append(out, 9)
}

func TestReadProfileSetErrors(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	var full bytes.Buffer
	if _, err := ps.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        nil,
		"bad magic":    []byte("XXXXjunkjunkjunk"),
		"truncated":    full.Bytes()[:full.Len()/2],
		"version bump": append([]byte("NGPS\xff"), full.Bytes()[5:]...),
	}
	for name, data := range cases {
		if _, err := ReadProfileSet(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadProfileSet accepted malformed input", name)
		}
	}
}

func TestReadProfileSetRejectsMismatchedN(t *testing.T) {
	// A set whose header says n=4 but whose profiles were built with
	// n=3 must be rejected on read, not silently misclassify later.
	threeGram := trainMini(t, Config{N: 3, TopT: 200})
	mixed := &ProfileSet{Config: DefaultConfig(), Profiles: threeGram.Profiles}
	var buf bytes.Buffer
	if _, err := mixed.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ReadProfileSet(&buf)
	if err == nil || !strings.Contains(err.Error(), "n=") {
		t.Errorf("mismatched profile n not rejected: %v", err)
	}
}
