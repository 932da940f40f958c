package main

// Input generation. Everything the program under test sees — the data
// set and every query stream — is derived here from -seed alone, so
// two runs with the same seed replay byte-identical inputs.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geo"
)

// Sizes of the shared set-up (ISSUE 12). baseRecords is N: the base
// data set every workload loads, and the number ChunkMaxBytes = 9·N is
// sized for (≈73 chunks over 12 shards after the load).
const (
	baseRecords = 120000
	extraFields = 16
	shardCount  = 12

	pointQueries = 4096
	scanQueries  = 512
	dashQueries  = 768

	// The paper's Q^s- and Q^b-sized rectangles.
	pointWidth, pointHeight = 0.0095, 0.0057
	scanWidth, scanHeight   = 0.4267, 0.33
	scanWindow              = 7 * 24 * time.Hour
	scanDocs                = 1000

	scanLimit = 100
	zipfS     = 1.1
)

// subSeed derives an independent, non-zero generator seed for one
// named stream of the run seed.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(stream))
	return int64(h.Sum64()>>1) | 1
}

// genRecords synthesises n time-ordered fleet traces.
func genRecords(seed int64, n int) []core.Record {
	return data.GenerateReal(data.RealConfig{
		Records:     n,
		ExtraFields: extraFields,
		Seed:        subSeed(seed, "data"),
	})
}

// queryClass names how a scan query bounds its result.
type queryClass uint8

const (
	classFull  queryClass = iota // no limit
	classLimit                   // Limit=100, natural order
	classTopK                    // Limit=100, newest first
)

func (c queryClass) String() string {
	return [...]string{"full", "limit", "topk"}[c]
}

// anchored builds one query whose rectangle and window contain a
// uniformly sampled record, so results are never empty and follow the
// data's skew. Bounds are whole milliseconds: stored dates have
// millisecond precision, and a sub-millisecond bound would make the
// answer depend on rounding.
func anchored(rng *rand.Rand, recs []core.Record, w, h float64, window time.Duration) core.STQuery {
	a := recs[rng.Intn(len(recs))]
	minLon := a.Point.Lon - rng.Float64()*w
	minLat := a.Point.Lat - rng.Float64()*h
	from := a.Time.Add(-time.Duration(rng.Float64() * float64(window))).Truncate(time.Millisecond)
	return core.STQuery{
		Rect: geo.NewRect(minLon, minLat, minLon+w, minLat+h),
		From: from,
		To:   from.Add(window.Truncate(time.Millisecond)),
	}
}

// genPointQueries is the point stream: the paper's small rectangle
// with a window drawn uniformly from 1 h–24 h (≈ 1.8 documents per query).
func genPointQueries(seed int64, recs []core.Record, n int) []core.STQuery {
	rng := rand.New(rand.NewSource(subSeed(seed, "point")))
	qs := make([]core.STQuery, n)
	for i := range qs {
		window := time.Hour + time.Duration(rng.Int63n(int64(23*time.Hour)))
		qs[i] = anchored(rng, recs, pointWidth, pointHeight, window)
	}
	return qs
}

// genScanQueries is the scan stream: the paper's big rectangle with a
// window of about 7 days (≈ scanDocs documents per query). How many
// documents a 7-day window returns depends on how concentrated the
// seed's fleet happens to be (970–1190 on average over ten seeds), and
// scan cost follows it; so that every seed states the same input size,
// the window is scaled — one factor for the whole stream — until the
// mean result is scanDocs. With classes set, the query index picks
// full / limit / topk in turn.
func genScanQueries(seed int64, recs []core.Record, n int, classes bool) []core.STQuery {
	draw := func(window time.Duration) []core.STQuery {
		rng := rand.New(rand.NewSource(subSeed(seed, "scan")))
		qs := make([]core.STQuery, n)
		for i := range qs {
			qs[i] = anchored(rng, recs, scanWidth, scanHeight, window)
		}
		return qs
	}
	matches := 0
	o := newOracle(recs)
	for _, q := range draw(scanWindow) {
		matches += o.expect(q).matches
	}
	qs := draw(time.Duration(float64(scanWindow) * scanDocs * float64(n) / float64(matches)))
	if classes {
		for i := range qs {
			switch classOf(i) {
			case classLimit:
				qs[i].Limit = scanLimit
			case classTopK:
				qs[i].Limit, qs[i].Sort = scanLimit, core.SortDateDesc
			}
		}
	}
	return qs
}

// classOf is the scan class of query index i when classes cycle.
func classOf(i int) queryClass { return queryClass(i % 3) }

// genMixedQueries interleaves 4 point queries with 1 full scan, the
// stream of range-net and mixed-rw.
func genMixedQueries(seed int64, recs []core.Record, points, scans int) []core.STQuery {
	ps := genPointQueries(seed, recs, points)
	ss := genScanQueries(seed, recs, scans, false)
	qs := make([]core.STQuery, 0, points+scans)
	for len(ps) > 0 || len(ss) > 0 {
		k := min(4, len(ps))
		qs = append(qs, ps[:k]...)
		ps = ps[k:]
		if len(ss) > 0 {
			qs = append(qs, ss[0])
			ss = ss[1:]
		}
	}
	return qs
}

// genDashQueries is the dashboard stream: scan-shaped aggregates whose
// kind is fixed per query index (count / 8-bit heatmap / distinct
// vehicle).
func genDashQueries(seed int64, recs []core.Record, n int) []core.STQuery {
	qs := genScanQueries(subSeed(seed, "dash"), recs, n, false)
	for i := range qs {
		switch i % 3 {
		case 0:
			qs[i].Count = true
		case 1:
			qs[i].HeatmapBits = 8
		default:
			qs[i].Distinct = "vehicleId"
		}
	}
	return qs
}

// zipfOrder draws length query indexes below n with Zipf(s)
// popularity; rank r is query index r, so low indexes are hot.
func zipfOrder(seed int64, stream string, n, length int) []int32 {
	rng := rand.New(rand.NewSource(subSeed(seed, stream)))
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	out := make([]int32, length)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// queriesDigest fingerprints a query list; the determinism test and
// the report use it to show two runs saw the same stream.
func queriesDigest(qs []core.STQuery) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, q := range qs {
		put(math.Float64bits(q.Rect.Min.Lon))
		put(math.Float64bits(q.Rect.Min.Lat))
		put(math.Float64bits(q.Rect.Max.Lon))
		put(math.Float64bits(q.Rect.Max.Lat))
		put(uint64(q.From.UnixNano()))
		put(uint64(q.To.UnixNano()))
		put(uint64(q.Limit)<<8 | uint64(q.Sort))
		put(uint64(q.HeatmapBits))
		h.Write([]byte(q.Distinct))
		if q.Count {
			h.Write([]byte{1})
		}
	}
	return h.Sum64()
}

// recordsDigest is an order-independent fingerprint of a record list
// over (lon, lat, time) — the generator-side twin of the oracle digest.
func recordsDigest(recs []core.Record) uint64 {
	var sum uint64
	for i := range recs {
		sum += pointHash(recs[i].Point.Lon, recs[i].Point.Lat, recs[i].Time.UnixMilli())
	}
	return sum
}

// pointHash mixes one observation into 64 bits (splitmix64 finaliser
// over the three fields).
func pointHash(lon, lat float64, ms int64) uint64 {
	x := math.Float64bits(lon)*0x9E3779B97F4A7C15 ^ math.Float64bits(lat)*0xC2B2AE3D27D4EB4F ^ uint64(ms)*0x165667B19E3779F9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
