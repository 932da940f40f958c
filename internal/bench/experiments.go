package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(e *Env, w io.Writer) error
}

// defaultApproaches is the evaluation's full comparison set; zones
// experiments drop hil* like the paper does (Section 5.3).
var (
	defaultApproaches = []core.Approach{core.BslST, core.BslTS, core.Hil, core.HilStar}
	zonesApproaches   = []core.Approach{core.BslST, core.BslTS, core.Hil}
)

// Experiments lists every reproducible table and figure, in the
// paper's order.
func Experiments() []Experiment {
	exps := []Experiment{
		{ID: "table2", Title: "Table 2: results of small queries (R and S)", Run: runTable2},
		{ID: "table3", Title: "Table 3: results of big queries (R and S)", Run: runTable3},
	}
	figs := []struct {
		id, title string
		ds        func(e *Env) *Dataset
		small     bool
		zones     bool
	}{
		{"fig5", "Figure 5: default sharding, small queries, R", (*Env).DatasetR, true, false},
		{"fig6", "Figure 6: default sharding, big queries, R", (*Env).DatasetR, false, false},
		{"fig7", "Figure 7: default sharding, small queries, S", (*Env).DatasetS, true, false},
		{"fig8", "Figure 8: default sharding, big queries, S", (*Env).DatasetS, false, false},
		{"fig9", "Figure 9: zone ranges, small queries, R", (*Env).DatasetR, true, true},
		{"fig10", "Figure 10: zone ranges, big queries, R", (*Env).DatasetR, false, true},
		{"fig11", "Figure 11: zone ranges, small queries, S", (*Env).DatasetS, true, true},
		{"fig12", "Figure 12: zone ranges, big queries, S", (*Env).DatasetS, false, true},
	}
	for _, f := range figs {
		f := f
		exps = append(exps, Experiment{
			ID:    f.id,
			Title: f.title,
			Run: func(e *Env, w io.Writer) error {
				approaches := defaultApproaches
				if f.zones {
					approaches = zonesApproaches
				}
				panel, err := e.RunPanel(f.ds(e), approaches, f.small, f.zones)
				if err != nil {
					return err
				}
				return panel.WriteTo(w, f.title)
			},
		})
	}
	exps = append(exps,
		Experiment{ID: "table4", Title: "Table 4: scalability data sets R1-R4", Run: runTable4},
		Experiment{ID: "table5", Title: "Table 5: results of Q2b per scale factor", Run: runTable5},
		Experiment{ID: "fig13", Title: "Figure 13: scalability study, Q2b on R1-R4", Run: runFig13},
		Experiment{ID: "table6", Title: "Table 6: data size per approach (Appendix A.1)", Run: runTable6},
		Experiment{ID: "table7", Title: "Table 7: index usage for bslST (Appendix A.2)", Run: runTable7},
		Experiment{ID: "table8", Title: "Table 8: Hilbert cell-identification time (Appendix A.2)", Run: runTable8},
		Experiment{ID: "fig14", Title: "Figure 14: total index sizes (Appendix A.3)", Run: runFig14},
		Experiment{ID: "abl-curve", Title: "Ablation: Hilbert vs z-order covers", Run: runAblCurve},
		Experiment{ID: "abl-precision", Title: "Ablation: curve precision sweep", Run: runAblPrecision},
		Experiment{ID: "abl-chunk", Title: "Ablation: chunk size sweep", Run: runAblChunkSize},
		Experiment{ID: "abl-hashed", Title: "Ablation: range vs hashed sharding", Run: runAblHashed},
		Experiment{ID: "abl-zones", Title: "Ablation: zone count vs locality", Run: runAblZones},
		Experiment{ID: "abl-sthash", Title: "Ablation: Hilbert vs ST-Hash encoding", Run: runAblSTHash},
	)
	return exps
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runResultTable renders Tables 2/3: query result counts for R and S.
func runResultTable(e *Env, w io.Writer, small bool, title string) error {
	names := QueryNames(small)
	header := append([]string{"Data set"}, names[:]...)
	var rows [][]string
	for _, ds := range []*Dataset{e.DatasetR(), e.DatasetS()} {
		// Counts are approach-independent; use hil, which needs no
		// extra index builds beyond the shard-key index.
		s, err := e.Store(ds, core.Hil, false)
		if err != nil {
			return err
		}
		row := []string{ds.Name}
		for _, q := range ds.Queries(small) {
			row = append(row, fmt.Sprintf("%d", s.Count(q)))
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(w, title)
	return writeSimpleTable(w, header, rows)
}

func runTable2(e *Env, w io.Writer) error {
	return runResultTable(e, w, true, "Table 2: number of retrieved documents, small queries")
}

func runTable3(e *Env, w io.Writer) error {
	return runResultTable(e, w, false, "Table 3: number of retrieved documents, big queries")
}

// runTable6 compares stored data sizes: the hil(*) documents carry
// the extra hilbertIndex field, so their collections are marginally
// larger (Appendix A.1).
func runTable6(e *Env, w io.Writer) error {
	fmt.Fprintln(w, "Table 6: data size in the store (MB, block-compressed / raw)")
	header := []string{"Data set", "bsl", "hil(*)"}
	var rows [][]string
	for _, ds := range []*Dataset{e.DatasetR(), e.DatasetS()} {
		bsl, err := e.Store(ds, core.BslST, false)
		if err != nil {
			return err
		}
		hil, err := e.Store(ds, core.Hil, false)
		if err != nil {
			return err
		}
		cell := func(s *core.Store) string {
			raw := s.Cluster().ClusterStats().DataBytes
			comp := s.Cluster().CompressedDataBytes()
			return fmt.Sprintf("%.2f / %.2f", float64(comp)/(1<<20), float64(raw)/(1<<20))
		}
		rows = append(rows, []string{ds.Name, cell(bsl), cell(hil)})
	}
	return writeSimpleTable(w, header, rows)
}

// runTable7 reports, for the bslST approach, which index the
// per-shard optimizer chose for every query: the compound
// spatio-temporal index or the date (shard key) index.
func runTable7(e *Env, w io.Writer) error {
	fmt.Fprintln(w, "Table 7: usage of indexes for the bslST approach")
	fmt.Fprintln(w, "  ●=compound index on all used nodes, ○=date index, ◐=mixed")
	header := []string{"Distribution", "Data set", "Category", "Q1", "Q2", "Q3", "Q4"}
	var rows [][]string
	for _, zones := range []bool{false, true} {
		dist := "Default"
		if zones {
			dist = "Zones"
		}
		for _, ds := range []*Dataset{e.DatasetR(), e.DatasetS()} {
			s, err := e.Store(ds, core.BslST, zones)
			if err != nil {
				return err
			}
			for _, small := range []bool{true, false} {
				cat := "Qb"
				if small {
					cat = "Qs"
				}
				row := []string{dist, ds.Name, cat}
				for _, q := range ds.Queries(small) {
					res := s.Query(q)
					row = append(row, indexUsageGlyph(res.Stats.IndexesUsed))
				}
				rows = append(rows, row)
			}
		}
	}
	return writeSimpleTable(w, header, rows)
}

// indexUsageGlyph classifies the per-shard winning plans like the
// paper's Table 7 legend.
func indexUsageGlyph(used []string) string {
	compound, date, other := 0, 0, 0
	for _, name := range used {
		switch {
		case strings.Contains(name, "2dsphere"):
			compound++
		case name == "{date: 1}":
			date++
		default:
			other++
		}
	}
	switch {
	case len(used) == 0:
		return "-"
	case compound > 0 && date == 0 && other == 0:
		return "●"
	case date > 0 && compound == 0 && other == 0:
		return "○"
	default:
		return fmt.Sprintf("◐(%d/%d)", compound, len(used))
	}
}

// runTable8 reports the average Hilbert cell-identification time per
// query category for hil and hil*.
func runTable8(e *Env, w io.Writer) error {
	fmt.Fprintln(w, "Table 8: avg time of the Hilbert cover algorithm (ms)")
	header := []string{"Data set", "hil Qs", "hil Qb", "hil* Qs", "hil* Qb"}
	var rows [][]string
	for _, ds := range []*Dataset{e.DatasetR(), e.DatasetS()} {
		row := []string{ds.Name}
		for _, a := range []core.Approach{core.Hil, core.HilStar} {
			s, err := e.Store(ds, a, false)
			if err != nil {
				return err
			}
			for _, small := range []bool{true, false} {
				var total float64
				queries := ds.Queries(small)
				const reps = 20
				for _, q := range queries {
					for r := 0; r < reps; r++ {
						_, _, d := s.Filter(q)
						total += d.Seconds() * 1000
					}
				}
				row = append(row, fmt.Sprintf("%.3f", total/float64(len(queries)*reps)))
			}
		}
		rows = append(rows, row)
	}
	return writeSimpleTable(w, header, rows)
}

// runFig14 reports per-approach total index sizes, split by index,
// for default distribution and zones.
func runFig14(e *Env, w io.Writer) error {
	fmt.Fprintln(w, "Figure 14: total size of indexes across shards (MB)")
	header := []string{"Panel", "Approach", "_id", "shard-key/date", "spatio-temporal", "total"}
	var rows [][]string
	for _, ds := range []*Dataset{e.DatasetR(), e.DatasetS()} {
		for _, zones := range []bool{false, true} {
			panel := fmt.Sprintf("%s %s", ds.Name, map[bool]string{false: "default", true: "zones"}[zones])
			approaches := defaultApproaches
			if zones {
				approaches = zonesApproaches
			}
			for _, a := range approaches {
				s, err := e.Store(ds, a, zones)
				if err != nil {
					return err
				}
				sizes := indexSizesByName(s)
				var names []string
				for n := range sizes {
					names = append(names, n)
				}
				slices.Sort(names)
				var id, sk, st, total int64
				for _, n := range names {
					sz := sizes[n]
					total += sz
					switch {
					case n == "_id_":
						id += sz
					case n == "shardkey":
						sk += sz
					default:
						st += sz
					}
				}
				rows = append(rows, []string{
					panel, a.String(),
					mb(id), mb(sk), mb(st), mb(total),
				})
			}
		}
	}
	return writeSimpleTable(w, header, rows)
}

func mb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// indexSizesByName sums each index's prefix-compressed size across
// the shards.
func indexSizesByName(s *core.Store) map[string]int64 {
	out := make(map[string]int64)
	for _, sh := range s.Cluster().Shards() {
		for _, ix := range sh.Coll.Indexes() {
			out[ix.Def().Name] += ix.SizeEstimate()
		}
	}
	return out
}
