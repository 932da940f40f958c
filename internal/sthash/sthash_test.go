package sthash

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

var (
	athens = geo.Point{Lon: 23.727539, Lat: 37.983810}
	at     = time.Date(2018, 10, 1, 8, 34, 40, 0, time.UTC)
)

func TestEncodeLayout(t *testing.T) {
	var e Encoder
	s := e.Encode(athens, at)
	if len(s) != 4+3+5+2 {
		t.Fatalf("key %q has length %d", s, len(s))
	}
	if !strings.HasPrefix(s, "2018274") { // 2018, day-of-year 274
		t.Fatalf("temporal prefix wrong: %q", s)
	}
	if s[7:12] != "swbb5" { // Athens geohash at 5 chars
		t.Fatalf("spatial part = %q", s[7:12])
	}
	if s[12:] != "08" {
		t.Fatalf("hour suffix = %q", s[12:])
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	e := Encoder{SpatialChars: 6}
	s := e.Encode(athens, at)
	day, hour, cell, err := e.Decode(s)
	if err != nil {
		t.Fatal(err)
	}
	if !day.Equal(time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("day = %v", day)
	}
	if hour != 8 {
		t.Fatalf("hour = %d", hour)
	}
	if !cell.Contains(athens) {
		t.Fatalf("cell %v does not contain athens", cell)
	}
	if _, _, _, err := e.Decode("short"); err == nil {
		t.Fatal("bad length accepted")
	}
	if _, _, _, err := e.Decode("2018274aaaaaa08"); err == nil {
		t.Fatal("invalid geohash accepted")
	}
}

// TestTimeMajorOrdering is the defining property (and flaw) of the
// encoding: keys order first by day, regardless of location.
func TestTimeMajorOrdering(t *testing.T) {
	var e Encoder
	far := geo.Point{Lon: -120, Lat: 45} // other side of the planet
	k1 := e.Encode(athens, at)
	k2 := e.Encode(far, at.Add(24*time.Hour))
	k3 := e.Encode(athens, at.Add(48*time.Hour))
	if !(k1 < k2 && k2 < k3) {
		t.Fatalf("keys not time-major: %q %q %q", k1, k2, k3)
	}
}

func TestCoverContainsAllKeys(t *testing.T) {
	var e Encoder
	rect := geo.NewRect(23.6, 37.9, 23.9, 38.1)
	from := time.Date(2018, 8, 10, 6, 0, 0, 0, time.UTC)
	to := from.Add(3 * 24 * time.Hour)
	ranges := e.Cover(rect, from, to, 0)
	if len(ranges) == 0 {
		t.Fatal("empty cover")
	}
	inCover := func(k string) bool {
		for _, r := range ranges {
			if k >= r.Lo && k <= r.Hi {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		p := geo.Point{
			Lon: rect.Min.Lon + rng.Float64()*rect.Width(),
			Lat: rect.Min.Lat + rng.Float64()*rect.Height(),
		}
		ts := from.Add(time.Duration(rng.Int63n(int64(to.Sub(from)))))
		if !inCover(e.Encode(p, ts)) {
			t.Fatalf("key of %v at %v not covered", p, ts)
		}
	}
}

// TestCoverSizeGrowsWithDays quantifies the paper's critique: for a
// fixed rectangle, the number of ranges grows linearly with the
// temporal window, so a spatially tiny query over months explodes.
func TestCoverSizeGrowsWithDays(t *testing.T) {
	var e Encoder
	rect := geo.NewRect(23.75, 37.98, 23.77, 38.00)
	from := time.Date(2018, 8, 1, 0, 0, 0, 0, time.UTC)
	oneDay := e.Cover(rect, from, from.Add(20*time.Hour), 0)
	month := e.Cover(rect, from, from.Add(30*24*time.Hour), 0)
	if len(month) < 25*len(oneDay) {
		t.Fatalf("cover did not grow with days: 1d=%d, 30d=%d", len(oneDay), len(month))
	}
}

func TestCoverRangesOrderedPerDay(t *testing.T) {
	var e Encoder
	rect := geo.NewRect(23.6, 37.9, 24.0, 38.2)
	from := time.Date(2018, 8, 1, 0, 0, 0, 0, time.UTC)
	ranges := e.Cover(rect, from, from.Add(5*time.Hour), 0)
	for _, r := range ranges {
		if r.Lo > r.Hi {
			t.Fatalf("inverted range %+v", r)
		}
	}
	los := make([]string, len(ranges))
	for i, r := range ranges {
		los[i] = r.Lo
	}
	if !slices.IsSorted(los) {
		t.Fatal("single-day cover not sorted")
	}
}

// TestCoverAscendsAndIsDisjoint: over random rectangles, spatial
// precisions and windows of one to five days, every cover range is
// ordered and each starts after the one before it ends. A query spec
// relies on this instead of sorting and merging the ranges.
func TestCoverAscendsAndIsDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		e := Encoder{SpatialChars: 1 + rng.Intn(7)}
		lon, lat := -180+rng.Float64()*350, -90+rng.Float64()*170
		rect := geo.NewRect(lon, lat, lon+rng.Float64()*rng.Float64()*10, lat+rng.Float64()*rng.Float64()*10)
		from := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Int63n(int64(3 * 365 * 24 * time.Hour))))
		to := from.Add(time.Duration(rng.Int63n(int64(5*24*time.Hour-time.Hour))) + time.Hour)
		ranges := e.Cover(rect, from, to, 1+rng.Intn(64))
		if len(ranges) == 0 {
			t.Fatalf("%v %v..%v: empty cover", rect, from, to)
		}
		for j, r := range ranges {
			if r.Lo > r.Hi {
				t.Fatalf("%v %v..%v: range %d inverted: %+v", rect, from, to, j, r)
			}
			if j > 0 && ranges[j-1].Hi >= r.Lo {
				t.Fatalf("%v %v..%v: range %d %+v does not start after %+v", rect, from, to, j, r, ranges[j-1])
			}
		}
	}
}

func TestSpatialCharsClamping(t *testing.T) {
	if (Encoder{SpatialChars: -3}).spatialChars() != DefaultSpatialChars {
		t.Fatal("negative chars not defaulted")
	}
	if (Encoder{SpatialChars: 99}).spatialChars() != 12 {
		t.Fatal("excess chars not clamped")
	}
}

func TestBase32OfBits(t *testing.T) {
	if got := base32OfBits(0, 3); got != "000" {
		t.Fatalf("zero = %q", got)
	}
	if got := base32OfBits(31, 1); got != "z" {
		t.Fatalf("31 = %q", got)
	}
}
