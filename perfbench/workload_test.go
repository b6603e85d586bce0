package main

import (
	"encoding/json"
	"testing"
)

// Every ISO-8859-1 byte must reach the daemon as the rune of the same
// value: a raw Latin-1 byte in a JSON string would decode as U+FFFD.
func TestEncodeLineKeepsLatin1Runes(t *testing.T) {
	doc := make([]byte, 256)
	for i := range doc {
		doc[i] = byte(i)
	}
	line, err := encodeLine(7, doc)
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ ID, Text string }
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "7" {
		t.Errorf("id %q, want \"7\"", got.ID)
	}
	runes := []rune(got.Text)
	if len(runes) != len(doc) {
		t.Fatalf("%d runes, want %d", len(runes), len(doc))
	}
	for i, r := range runes {
		if r != rune(doc[i]) {
			t.Errorf("rune %d is %U, want %U", i, r, rune(doc[i]))
		}
	}
}
