package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/paper_counters_golden.json from this tree (only for an intended change of the paper's counters; say so in EXPERIMENTS.md)")

// goldenCell is every non-timing observable of one (approach, query)
// cell of a figure: the paper's three deterministic metrics, the result
// count and the winning access path per shard (Table 7's input).
type goldenCell struct {
	Approach    string   `json:"approach"`
	Query       string   `json:"query"`
	MaxKeys     int      `json:"maxKeys"`
	MaxDocs     int      `json:"maxDocs"`
	Nodes       int      `json:"nodes"`
	NReturned   int      `json:"nReturned"`
	IndexesUsed []string `json:"indexesUsed"`
}

type goldenPanel struct {
	Figure string       `json:"figure"`
	Cells  []goldenCell `json:"cells"`
}

// TestPaperCountersGolden pins the counters of Figures 5 and 6 (R,
// default sharding, small and big queries, all four approaches) at the
// default 40 k scale. They are deterministic — only panel (d), the
// timings, moves run to run — so a change to the executor, the planner,
// the B-tree or the record store that alters what a query examines
// fails here instead of silently shifting the reproduction.
// Regenerate: go test ./internal/bench -run TestPaperCountersGolden -update
func TestPaperCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four 40 k stores")
	}
	scale := DefaultScale()
	scale.Runs, scale.Warmup = 1, 0 // counters do not depend on repetition
	env := NewEnv(scale)
	d := env.DatasetR()
	var got []goldenPanel
	for _, fig := range []struct {
		name  string
		small bool
	}{{"fig5", true}, {"fig6", false}} {
		p, err := env.RunPanel(d, defaultApproaches, fig.small, false)
		if err != nil {
			t.Fatal(err)
		}
		gp := goldenPanel{Figure: fig.name}
		for _, row := range p.Cells {
			for _, m := range row {
				gp.Cells = append(gp.Cells, goldenCell{
					Approach:    m.Approach.String(),
					Query:       m.QueryName,
					MaxKeys:     m.MaxKeys,
					MaxDocs:     m.MaxDocs,
					Nodes:       m.Nodes,
					NReturned:   m.NReturned,
					IndexesUsed: m.IndexesUsed,
				})
			}
		}
		got = append(got, gp)
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	path := filepath.Join("testdata", "paper_counters_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(enc, want) {
		return
	}
	var wantPanels []goldenPanel
	if err := json.Unmarshal(want, &wantPanels); err != nil {
		t.Fatalf("golden unreadable: %v", err)
	}
	for i := range got {
		if i >= len(wantPanels) || len(got[i].Cells) != len(wantPanels[i].Cells) {
			t.Fatalf("%s: panel shape differs from the golden", got[i].Figure)
		}
		for j, g := range got[i].Cells {
			w := wantPanels[i].Cells[j]
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(w)
			if !bytes.Equal(gj, wj) {
				t.Errorf("%s %s %s:\n got %s\nwant %s", got[i].Figure, g.Approach, g.Query, gj, wj)
			}
		}
	}
	if !t.Failed() {
		t.Fatal("golden bytes differ (formatting); regenerate with -update")
	}
}
