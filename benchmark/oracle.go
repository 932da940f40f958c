package main

// The naive-scan oracle. It knows nothing of curves, indexes or
// shards: a record matches a query when its point lies in the closed
// rectangle and its millisecond timestamp in the closed window. The
// records are sorted by time once so each query scans only its window.

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/bson"
	"repro/internal/core"
	"repro/internal/geo"
)

// obs is one observation as the oracle sees it.
type obs struct {
	lon, lat float64
	ms       int64
}

// oracle answers queries by scanning a time-sorted copy of the data.
type oracle struct {
	byTime []obs
}

// observe reduces records to what the oracle needs of them.
func observe(recs []core.Record) []obs {
	out := make([]obs, len(recs))
	for i := range recs {
		out[i] = obs{recs[i].Point.Lon, recs[i].Point.Lat, recs[i].Time.UnixMilli()}
	}
	return out
}

func newOracle(recs []core.Record) *oracle { return oracleOf(observe(recs)) }

// oracleOf sorts a copy of the observations by time.
func oracleOf(all []obs) *oracle {
	o := &oracle{byTime: slices.Clone(all)}
	slices.SortFunc(o.byTime, func(a, b obs) int {
		switch {
		case a.ms < b.ms:
			return -1
		case a.ms > b.ms:
			return 1
		}
		return 0
	})
	return o
}

// expectation is what a correct answer to one query looks like.
type expectation struct {
	// matches is the size of the unlimited result set and digest its
	// order-independent fingerprint over (lon, lat, time).
	matches int
	digest  uint64
	// returned is the size of the result the query must return:
	// matches, capped by the query's limit.
	returned int
	// newest holds, for a top-k query, the timestamps of the expected
	// documents, newest first.
	newest []int64
}

// expect scans the window of q.
func (o *oracle) expect(q core.STQuery) expectation {
	from, to := q.From.UnixMilli(), q.To.UnixMilli()
	lo := sort.Search(len(o.byTime), func(i int) bool { return o.byTime[i].ms >= from })
	var e expectation
	for _, r := range o.byTime[lo:] {
		if r.ms > to {
			break
		}
		if r.lon < q.Rect.Min.Lon || r.lon > q.Rect.Max.Lon || r.lat < q.Rect.Min.Lat || r.lat > q.Rect.Max.Lat {
			continue
		}
		e.matches++
		e.digest += pointHash(r.lon, r.lat, r.ms)
		if q.Limit > 0 && q.Sort == core.SortDateDesc {
			e.newest = append(e.newest, r.ms)
		}
	}
	e.returned = e.matches
	if q.Limit > 0 && e.returned > q.Limit {
		e.returned = q.Limit
	}
	if e.newest != nil {
		slices.Reverse(e.newest)
		e.newest = e.newest[:e.returned]
	}
	return e
}

// expectAll answers every query.
func (o *oracle) expectAll(qs []core.STQuery) []expectation {
	out := make([]expectation, len(qs))
	for i, q := range qs {
		out[i] = o.expect(q)
	}
	return out
}

// docObs reads the oracle's three fields back out of a stored document.
func docObs(doc bson.Raw) (obs, error) {
	loc, ok := doc.Lookup(core.FieldLoc)
	if !ok {
		return obs{}, fmt.Errorf("document has no %s", core.FieldLoc)
	}
	p, ok := geo.PointFromGeoJSON(loc)
	if !ok {
		return obs{}, fmt.Errorf("document's %s is not a GeoJSON point", core.FieldLoc)
	}
	t, ok := doc.Get(core.FieldDate).(time.Time)
	if !ok {
		return obs{}, fmt.Errorf("document has no %s", core.FieldDate)
	}
	return obs{p.Lon, p.Lat, t.UnixMilli()}, nil
}

// verifyDocs checks a full first-pass answer: the count, that every
// document satisfies the predicate, and — by query shape — the digest
// (whenever the limit did not cut the result), or the exact
// newest-first timestamps (top-k). A natural-order limit that did cut
// has no oracle order, so it is held to count plus membership.
func verifyDocs(q core.STQuery, docs []bson.Raw, want expectation) error {
	if len(docs) != want.returned {
		return fmt.Errorf("returned %d documents, oracle expects %d", len(docs), want.returned)
	}
	var digest uint64
	for i, d := range docs {
		o, err := docObs(d)
		if err != nil {
			return fmt.Errorf("document %d: %w", i, err)
		}
		if !q.Rect.Contains(geo.Point{Lon: o.lon, Lat: o.lat}) || o.ms < q.From.UnixMilli() || o.ms > q.To.UnixMilli() {
			return fmt.Errorf("document %d lies outside the query", i)
		}
		digest += pointHash(o.lon, o.lat, o.ms)
		if want.newest != nil && o.ms != want.newest[i] {
			return fmt.Errorf("top-k position %d has time %d, oracle expects %d", i, o.ms, want.newest[i])
		}
	}
	if want.returned == want.matches && digest != want.digest {
		return fmt.Errorf("digest %016x, oracle expects %016x", digest, want.digest)
	}
	return nil
}
