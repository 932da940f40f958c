package query

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/collection"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/sfc"
)

// orderedValue is the sort field value a fuzz byte selects: absent
// (nil, false), null, a string, an array, a number, or one of five
// dates a second apart — few enough that dates collide within one
// leading value and across leading values.
func orderedValue(b byte) (any, bool) {
	v := b >> 3
	switch b % 8 {
	case 0:
		return nil, false
	case 1:
		return nil, true
	case 2:
		return string(rune('a' + v%3)), true
	case 3:
		return bson.A{int64(v % 3)}, true
	case 4:
		return int64(v % 3), true
	}
	return baseTime.Add(time.Duration(v%5) * time.Second), true
}

// orderedCollection builds the fuzz collection: four documents per
// input triple — a leading cell g (six of them) in hilbertIndex, the
// sort field s in date (of any kind, or absent) and a residual x in
// the location's longitude — under an index with s following g, one
// with s leading and one without s; every triple's top bits delete
// some of its records from the store but not from the indexes (holes).
func orderedCollection(t *testing.T, data []byte) *collection.Collection {
	c := collection.New("ordered")
	for _, def := range []index.Definition{
		{Name: "gs", Fields: []index.Field{{Name: FieldHilbert}, {Name: FieldDate}}},
		{Name: "s", Fields: []index.Field{{Name: FieldDate}}},
		{Name: "g", Fields: []index.Field{{Name: FieldHilbert}}},
	} {
		mustIndex(t, c, def)
	}
	n := int64(0)
	for i := 0; i+3 <= len(data); i += 3 {
		for k := byte(0); k < 4; k++ {
			d := bson.D{{Key: "_id", Value: n}, {Key: FieldHilbert, Value: int64((data[i] + k) % 6)}}
			if v, ok := orderedValue(data[i+1] + 8*k); ok {
				d = append(d, bson.Elem{Key: FieldDate, Value: v})
			}
			x := float64((data[i+2] + k) % 8)
			d = append(d, bson.Elem{Key: FieldLoc, Value: geo.GeoJSONPoint(geo.Point{Lon: 20 + x, Lat: 37})})
			n++
			id, err := c.Insert(bson.FromD(d))
			if err != nil {
				t.Fatal(err)
			}
			if data[i+2]>>(4+k/2)&1 == 1 && k%2 == 1 {
				c.Store().Delete(id)
			}
		}
	}
	return c
}

// FuzzOrderedExecution holds every ordered execution — key-first, with
// the sort field leading or following in the plan's index, and refined
// in scan order, with the field absent from the index or under a
// COLLSCAN — to a naive reference: the same plan's unordered matches,
// stable-sorted by appendSortKey and truncated. Documents and keys
// must be byte-identical, both ways and at limits around the fetch
// batch; the keys examined are the unordered scan's and the documents
// examined never more. A cancelled execution must report the context's
// error and not completion; one the cancellation never reached must
// still be exact. Under a bound (Opts.Bound: a matching document's sort
// key) the answer must be the unbounded one minus exactly the documents
// whose keys are strictly worse, examining no more documents.
func FuzzOrderedExecution(f *testing.F) {
	f.Add([]byte{0, 5, 1, 1, 13, 2, 2, 21, 3, 3, 29, 4, 4, 37, 5, 5, 45, 6}, uint8(0), uint16(0), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0xf0, 1, 1, 7, 2, 2, 0xe0, 3, 3, 11, 4, 4, 0x30, 5, 5, 9, 9, 6, 2}, uint8(1), uint16(0x1f1), uint8(1), uint8(3))
	f.Add(bytes.Repeat([]byte{3, 77, 0x5a, 4, 141, 0x23, 5, 200, 0xc1}, 24), uint8(2), uint16(0x2a2), uint8(3), uint8(9))
	f.Add(bytes.Repeat([]byte{1, 37, 200, 2, 45, 17}, 48), uint8(3), uint16(0x3c), uint8(2), uint8(1))
	f.Add(bytes.Repeat([]byte{5, 6, 7, 11, 12, 13}, 48), uint8(4), uint16(0x155), uint8(0), uint8(40))
	f.Add(bytes.Repeat([]byte{9, 61, 3}, 96), uint8(5), uint16(0x7e), uint8(4), uint8(0))
	// One leading value whose dates arrive in key order — inserted
	// ascending or descending, two or three documents a date — so the
	// key-first pass hands them out without sorting, both ways.
	var asc, desc []byte
	for i := 0; i < 30; i++ {
		asc = append(asc, 0, byte(5+8*(i/3)), byte(i))
		desc = append(desc, 0, byte(5+8*((29-i)/2)), byte(i))
	}
	for _, stream := range [][]byte{asc, desc} {
		for _, flags := range []uint16{0, 8} {
			f.Add(stream, uint8(1), flags, uint8(0), uint8(0))
			f.Add(stream, uint8(3), flags, uint8(0), uint8(17))
			f.Add(stream, uint8(0), flags, uint8(2), uint8(60))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, limitSel uint8, flags uint16, cancel, boundSel uint8) {
		if len(data) > 3*96 {
			data = data[:3*96]
		}
		c := orderedCollection(t, data)
		lo := uint64(flags>>4) % 6
		// The residual: a longitude below x+1.
		f := &Spec{Rect: geo.NewRect(19.5, 36, 20.5+float64(flags>>13), 38)}
		onG := func() { f.Key, f.Cells = HilbertKey, []sfc.Range{{Lo: lo, Hi: lo + uint64(flags>>7)%6}} }
		f.From, f.To = anyFrom, anyTo
		onS := func() {
			f.From = baseTime.Add(time.Duration(flags>>10%3) * time.Second)
			f.To = baseTime.Add(time.Duration(2+flags>>12%3) * time.Second)
		}
		// The sort field's window open (the gs index skip-scans every
		// date), alone in the spec (the s index), and narrowed under a
		// skip-scan of gs.
		switch flags % 3 {
		case 0:
			onG()
		case 1:
			onS()
		default:
			onG()
			onS()
		}
		field := FieldDate
		if flags&4 != 0 {
			field = FieldHilbert
		}
		opts := Opts{
			Limit:   []int{0, 1, fetchBatch - 1, fetchBatch, fetchBatch + 1, 1000}[limitSel%6],
			OrderBy: field,
			Desc:    flags&8 != 0,
		}
		for _, p := range append(CandidatePlans(c, f), &Plan{Filter: f}) {
			plain := runCase((*exec).run, c, p, execCase{collect: true})
			want := sortAndTruncate(plain.res.Docs, opts)
			tc := execCase{collect: true, opts: opts}
			got := runCase((*exec).run, c, p, tc)
			if d := orderedDiff(got, want, field); d != "" {
				t.Fatalf("plan %s, %+v: %s", p.Name(), opts, d)
			}
			if got.keys != plain.keys || got.docs > plain.docs || got.nret < len(want) {
				t.Fatalf("plan %s, %+v: keys/docs/nReturned %d/%d/%d, unordered %d/%d with %d of them wanted",
					p.Name(), opts, got.keys, got.docs, got.nret, plain.keys, plain.docs, len(want))
			}
			if boundSel > 0 && len(plain.res.Docs) > 0 {
				bopts := opts
				bopts.Bound = appendSortKey(nil, plain.res.Docs[int(boundSel-1)%len(plain.res.Docs)], field)
				var kept []bson.Raw
				for _, d := range want {
					c := bytes.Compare(appendSortKey(nil, d, field), bopts.Bound)
					if c == 0 || (c < 0) != bopts.Desc {
						kept = append(kept, d)
					}
				}
				bounded := runCase((*exec).run, c, p, execCase{collect: true, opts: bopts})
				if d := orderedDiff(bounded, kept, field); d != "" {
					t.Fatalf("plan %s, %+v bound %x: %s", p.Name(), opts, bopts.Bound, d)
				}
				if bounded.keys != plain.keys || bounded.docs > got.docs {
					t.Fatalf("plan %s, %+v bound %x: keys/docs %d/%d, unbounded %d/%d",
						p.Name(), opts, bopts.Bound, bounded.keys, bounded.docs, got.keys, got.docs)
				}
			}
			if cancel == 0 {
				continue
			}
			tc.cancelAt = int(cancel)
			stopped := runCase((*exec).run, c, p, tc)
			switch {
			case stopped.err != nil:
				if !errors.Is(stopped.err, context.Canceled) || stopped.completed {
					t.Fatalf("plan %s, %+v, cancelled at check %d: err %v, completed %v",
						p.Name(), opts, tc.cancelAt, stopped.err, stopped.completed)
				}
			case orderedDiff(stopped, want, field) != "":
				t.Fatalf("plan %s, %+v: the cancellation was never seen, yet %s",
					p.Name(), opts, orderedDiff(stopped, want, field))
			}
		}
	})
}

// sortAndTruncate is the reference answer of an ordered execution:
// docs stable-sorted by appendSortKey, reversed for Desc, cut to Limit.
func sortAndTruncate(docs []bson.Raw, opts Opts) []bson.Raw {
	out := slices.Clone(docs)
	slices.SortStableFunc(out, func(a, b bson.Raw) int {
		c := bytes.Compare(appendSortKey(nil, a, opts.OrderBy), appendSortKey(nil, b, opts.OrderBy))
		if opts.Desc {
			return -c
		}
		return c
	})
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	return out
}

// orderedDiff compares an ordered execution's answer with the
// reference documents; every returned key must be its document's
// appendSortKey.
func orderedDiff(got outcome, want []bson.Raw, field string) string {
	if !got.completed || got.err != nil {
		return "the execution did not complete"
	}
	if len(got.res.Docs) != len(want) || len(got.res.Keys) != len(want) {
		return "wrong number of documents or keys"
	}
	for i := range want {
		if !bytes.Equal(got.res.Docs[i], want[i]) {
			return "documents differ from sort-then-truncate"
		}
		if !bytes.Equal(got.res.Keys[i], appendSortKey(nil, want[i], field)) {
			return "a key is not its document's sort key"
		}
	}
	return ""
}
