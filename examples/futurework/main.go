// Futurework: demonstrates the extensions beyond the paper's core
// evaluation — polygon $geoWithin queries, the workload-aware
// adaptive zoning advisor, and the ST-Hash related-work encoding —
// side by side on one data set.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/examples/futurework/internal/adaptive"
	"repro/examples/futurework/internal/traj"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geo"
)

func main() {
	recs := data.GenerateReal(data.RealConfig{Records: 20000})
	day := data.RStart.Add(30 * 24 * time.Hour)

	// --- 1. Polygon queries (paper future work: complex geometries).
	hil, err := core.Open(core.Config{Approach: core.Hil, Shards: 6})
	if err != nil {
		log.Fatal(err)
	}
	if err := hil.Load(recs); err != nil {
		log.Fatal(err)
	}
	// A triangle over the Attica peninsula.
	tri, err := geo.NewPolygon(
		geo.Point{Lon: 23.55, Lat: 37.85},
		geo.Point{Lon: 24.05, Lat: 37.95},
		geo.Point{Lon: 23.80, Lat: 38.30},
	)
	if err != nil {
		log.Fatal(err)
	}
	pres := hil.QueryPolygon(core.STPolygonQuery{
		Polygon: tri, From: day, To: day.Add(14 * 24 * time.Hour),
	})
	rres := hil.Query(core.STQuery{
		Rect: tri.BoundingRect(), From: day, To: day.Add(14 * 24 * time.Hour),
	})
	fmt.Printf("polygon query: %d results inside the triangle (bounding box holds %d)\n",
		pres.Stats.NReturned, rres.Stats.NReturned)
	fmt.Printf("  routed by the triangle's Hilbert cover: %d nodes, maxKeys %d\n\n",
		pres.Stats.Nodes, pres.Stats.MaxKeysExamined)

	// --- 2. Workload-aware zoning (paper future work: adaptive
	// partitioning). A skewed workload hammering Athens gets observed
	// and the advisor rebalances zones by query-weighted data mass.
	adv := adaptive.NewAdvisor(hil)
	athensQ := core.STQuery{
		Rect: geo.NewRect(23.70, 37.92, 23.82, 38.00),
		From: day, To: day.Add(7 * 24 * time.Hour),
	}
	for i := 0; i < 40; i++ {
		adv.Observe(athensQ)
	}
	before := hil.Query(athensQ)
	if err := adv.Apply(6); err != nil {
		log.Fatal(err)
	}
	after := hil.Query(athensQ)
	fmt.Printf("adaptive zoning after %d observed queries on field %q:\n",
		adv.Queries(), adv.Field())
	fmt.Printf("  athens query: %d nodes / maxDocs %d before -> %d nodes / maxDocs %d after\n",
		before.Stats.Nodes, before.Stats.MaxDocsExamined,
		after.Stats.Nodes, after.Stats.MaxDocsExamined)
	fmt.Printf("  (the hot region is cut into more zones, spreading its load over\n")
	fmt.Printf("   more shards; results unchanged: %d = %d)\n\n",
		before.Stats.NReturned, after.Stats.NReturned)

	// --- 3. ST-Hash comparison (the related-work encoding).
	sth, err := core.Open(core.Config{Approach: core.STHash, Shards: 6})
	if err != nil {
		log.Fatal(err)
	}
	if err := sth.Load(recs); err != nil {
		log.Fatal(err)
	}
	narrow := core.STQuery{
		Rect: geo.NewRect(23.755, 37.985, 23.768, 37.995), // street-sized
		From: data.RStart, To: data.RStart.Add(90 * 24 * time.Hour),
	}
	for _, s := range []*core.Store{hil, sth} {
		name := s.Config().Approach.String()
		_, coverStats, coverTime := s.Filter(narrow)
		res := s.Query(narrow)
		fmt.Printf("%-7s street-level 3-month query: %d ranges (%v cover), %d nodes, maxKeys %d, %v\n",
			name, coverStats.Ranges+coverStats.Singles, coverTime.Round(time.Microsecond),
			res.Stats.Nodes, res.Stats.MaxKeysExamined, res.Stats.Duration.Round(time.Microsecond))
	}
	fmt.Println("\nthe time-major ST-Hash encoding needs one range per (day x cell),")
	fmt.Println("which is the weakness the paper's Section 2.2 identifies.")

	// --- 4. Trajectories (paper future work: polylines). A dense
	// two-week fleet feed (traces minutes apart) becomes per-vehicle
	// trip segments stored as polyline documents, queried
	// spatio-temporally as whole trips.
	dense := data.GenerateReal(data.RealConfig{
		Records:  20000,
		Vehicles: 10,
		Duration: 14 * 24 * time.Hour,
	})
	segs := traj.BuildSegments(dense, traj.BuilderConfig{MaxGap: time.Hour})
	segStore, err := traj.OpenStore(traj.StoreConfig{Shards: 6})
	if err != nil {
		log.Fatal(err)
	}
	if err := segStore.Load(segs); err != nil {
		log.Fatal(err)
	}
	tres, err := segStore.Query(
		geo.NewRect(23.70, 37.92, 23.82, 38.00), // central Athens
		data.RStart, data.RStart.Add(7*24*time.Hour),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrajectories: %d trips from %d stored segments pass through central\n",
		len(tres.Segments), segStore.Len())
	fmt.Printf("Athens that week (%d candidates fetched from %d nodes)\n",
		tres.Candidates, tres.Nodes)
	for i, s := range tres.Segments {
		if i >= 3 {
			fmt.Printf("  ... and %d more\n", len(tres.Segments)-3)
			break
		}
		fmt.Printf("  vehicle %d: %d traces, %s, %v\n",
			s.VehicleID, len(s.Points), s.Start.Format("Jan 02 15:04"), s.Duration().Round(time.Minute))
	}
}
