package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

var updateRenderGolden = flag.Bool("update-render-golden", false,
	"rewrite testdata/render_golden.txt from the current tree")

// explainTime masks the one nondeterministic field of a rendered
// explanation.
// goldenLineMax bounds the rendering kept verbatim per line.
const goldenLineMax = 600

var explainTime = regexp.MustCompile(`time=\S+`)

// TestFilterAndExplainRenderingGolden pins the paper's query language
// as the store prints it: Filter(q).String() and every shard's
// Explain(q).String(), for each approach on a point query, a range
// query and a query whose cover is empty (a rectangle outside the
// data and a window that ends before it starts).
func TestFilterAndExplainRenderingGolden(t *testing.T) {
	queries := []struct {
		name string
		q    STQuery
	}{
		{"point", STQuery{Rect: geo.NewRect(23.70, 37.95, 23.71, 37.96), From: testStart.Add(3 * time.Hour), To: testStart.Add(5 * time.Hour)}},
		{"range", STQuery{Rect: geo.NewRect(23.6, 37.8, 23.8, 38.0), From: testStart, To: testStart.Add(30 * time.Hour)}},
		{"empty", STQuery{Rect: geo.NewRect(10, 10, 10.5, 10.5), From: testStart.Add(48 * time.Hour), To: testStart}},
	}
	var b strings.Builder
	for _, a := range []Approach{BslST, BslTS, Hil, HilStar, STHash} {
		s := openStore(t, a, 2)
		if err := s.Load(testRecords(1500)); err != nil {
			t.Fatal(err)
		}
		for _, tc := range queries {
			f, _, _ := s.Filter(tc.q)
			fmt.Fprintf(&b, "== %s %s\nfilter: %s\n", a, tc.name, f)
			shards, exps := s.Explain(tc.q)
			fmt.Fprintf(&b, "shards: %v\n", shards)
			for i, e := range exps {
				fmt.Fprintf(&b, "-- shard %d\n%s", shards[i], explainTime.ReplaceAllString(e.String(), "time=X"))
			}
		}
	}
	// A cover renders one arm per range: a line past goldenLineMax is
	// pinned by its head, length and digest.
	lines := strings.Split(b.String(), "\n")
	for i, l := range lines {
		if len(l) > goldenLineMax {
			lines[i] = fmt.Sprintf("%s... [%d bytes, sha256 %x]", l[:goldenLineMax], len(l), sha256.Sum256([]byte(l)))
		}
	}
	got := strings.Join(lines, "\n")
	path := filepath.Join("testdata", "render_golden.txt")
	if *updateRenderGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("rendering differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("rendering has %d lines, golden %d", len(gl), len(wl))
	}
}
