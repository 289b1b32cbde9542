package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModelOnlyIsUnchanged: `bench -model-only` prints the paper's
// analytic model at its Table 1 defaults, which no change to how the
// tree commits moves — formulas (6)–(12) know nothing of the in-node or
// column trees. testdata/model-only.golden is that output as 2c6ee41
// printed it (`go run ./cmd/bench -model-only`), byte for byte.
func TestModelOnlyIsUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "model-only.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	renderModel(&got, func(string) bool { return true })
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("model output differs from the golden at line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
