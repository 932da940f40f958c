package sharding

// The write path works on encoded documents; these tests hold each
// piece of it to the decoding reference it replaced.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/wal"
)

// refSummaryCell is the summary cell as it was derived from a decoded
// document: the leading shard-key value, when it is a non-negative
// int64.
func refSummaryCell(doc *bson.Document, field string, shift int) (uint64, bool) {
	v, ok := doc.Lookup(field)
	if !ok {
		return 0, false
	}
	iv, ok := bson.Normalize(v).(int64)
	if !ok || iv < 0 {
		return 0, false
	}
	return uint64(iv) >> uint(shift), true
}

// FuzzShardKeyRaw: for any document that decodes, the shard-key tuple
// (range and hashed) and the summary cell read from the encoded bytes
// equal the ones derived from the decoded document; bytes that do not
// decode must not panic either reader.
func FuzzShardKeyRaw(f *testing.F) {
	seed := func(lead any) []byte {
		return bson.Marshal(bson.FromD(bson.D{
			{Key: "_id", Value: int64(1)},
			{Key: "location", Value: geo.GeoJSONPoint(geo.Point{Lon: 23.7, Lat: 37.9})},
			{Key: "date", Value: time.UnixMilli(1_531_000_000_123).UTC()},
			{Key: "hilbertIndex", Value: lead},
			{Key: "s", Value: "athens\x00x"},
			{Key: "sub", Value: bson.FromD(bson.D{{Key: "x", Value: int32(4)}})},
		}))
	}
	for _, lead := range []any{int64(123456), int64(-1), int32(77), 12.5, "str", nil, true,
		bson.A{int64(1)}, bson.FromD(bson.D{{Key: "k", Value: "v"}})} {
		f.Add(seed(lead))
	}
	whole := seed(int64(9))
	f.Add(whole[:len(whole)/2])
	f.Add([]byte{5, 0, 0, 0, 0})
	f.Add([]byte{})

	keys := []ShardKey{
		{Fields: []string{"hilbertIndex", "date"}},
		{Fields: []string{"hilbertIndex", "date"}, Strategy: HashedSharding},
		{Fields: []string{"s"}},
		{Fields: []string{"s"}, Strategy: HashedSharding},
		{Fields: []string{"sub.x", "missing", "location"}},
		{Fields: []string{"sub", "_id"}, Strategy: HashedSharding},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := bson.Unmarshal(data)
		for _, key := range keys {
			got := key.AppendTupleRaw(nil, data) // must not panic, whatever data is
			c := &Cluster{key: key, opts: Options{SummaryShift: 10}}
			cell, cellOK := c.summaryCellLocked(data)
			if err != nil {
				continue
			}
			if want := key.TupleOf(doc); !bytes.Equal(got, want) {
				t.Fatalf("key %s: raw tuple %x, decoded tuple %x\ninput: %x", key, got, want, data)
			}
			wantCell, wantOK := refSummaryCell(doc, key.Fields[0], 10)
			if cell != wantCell || cellOK != wantOK {
				t.Fatalf("key %s: raw cell %d/%v, decoded cell %d/%v\ninput: %x", key, cell, cellOK, wantCell, wantOK, data)
			}
		}
	})
}

// TestSplitPointMatchesSortedReference holds the streaming median pick
// to the rule it replaced — materialise every tuple, take the middle
// one, step past a run that reaches the low end, binary-search the left
// count — on tuple multisets with long runs of equal values at either
// end and in the middle.
func TestSplitPointMatchesSortedReference(t *testing.T) {
	reference := func(tuples [][]byte) (split []byte, leftDocs int, ok bool) {
		split = tuples[len(tuples)/2]
		if bytes.Equal(split, tuples[0]) {
			i := sort.Search(len(tuples), func(i int) bool { return bytes.Compare(tuples[i], split) > 0 })
			if i == len(tuples) {
				return nil, 0, false
			}
			split = tuples[i]
		}
		leftDocs = sort.Search(len(tuples), func(i int) bool { return bytes.Compare(tuples[i], split) >= 0 })
		return split, leftDocs, true
	}
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 2000; round++ {
		n := 2 + rng.Intn(40)
		distinct := 1 + rng.Intn(6)
		tuples := make([][]byte, n)
		for i := range tuples {
			v := rng.Intn(distinct)
			if rng.Intn(3) == 0 {
				v = 0 // a heavy run at the low end
			}
			tuples[i] = []byte{0x20, byte(v)}
		}
		slices.SortFunc(tuples, bytes.Compare)
		wantSplit, wantLeft, wantOK := reference(tuples)
		split, left, ok := splitPoint(n, func(visit func([]byte) bool) {
			for _, tu := range tuples {
				if !visit(tu) {
					return
				}
			}
		})
		if ok != wantOK || left != wantLeft || !bytes.Equal(split, wantSplit) {
			t.Fatalf("tuples %x: split %x left %d ok %v, reference %x / %d / %v",
				tuples, split, left, ok, wantSplit, wantLeft, wantOK)
		}
	}
}

// TestSketchesMatchDecodedRebuild drives a durable cluster through a
// bulk load, a balance, idempotent batches across further splits and
// migrations and a crash-free reopen, and then checks what the
// byte-reading maintenance left behind: every chunk's (cell, count)
// list equals the one a scan of its fully decoded documents gives, and
// the chunk map accounts for every stored document.
func TestSketchesMatchDecodedRebuild(t *testing.T) {
	opts := Options{
		Shards: 4, ChunkMaxBytes: 16 << 10, AutoBalanceEvery: 256,
		SummaryShift: 4, Dir: t.TempDir(), Sync: wal.SyncNever,
	}
	c := openDurable(t, opts)
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	docs := wideDocs(31, 6000)
	for _, d := range docs[:3000] {
		if err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	c.Balance()
	before := c.ClusterStats()
	for k := 0; k*64 < 3000; k++ {
		batch := docs[3000+k*64 : min(3000+(k+1)*64, len(docs))]
		if _, _, err := c.InsertBatch(fmt.Sprintf("b%03d", k), batch); err != nil {
			t.Fatal(err)
		}
	}
	after := c.ClusterStats()
	if after.Splits-before.Splits < 20 || after.Migrations-before.Migrations < 10 {
		t.Fatalf("batches crossed %d splits and %d migrations, want at least 20 and 10",
			after.Splits-before.Splits, after.Migrations-before.Migrations)
	}
	checkCellsAndAccounting(t, "live", c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	checkCellsAndAccounting(t, "recovered", openDurable(t, opts))
}

func checkCellsAndAccounting(t *testing.T, label string, c *Cluster) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Each chunk's cells as a scan of its decoded documents finds them.
	cells, _, inChunk := decodedChunkCells(t, c)
	storeDocs, storeBytes := 0, int64(0)
	for _, s := range c.shards {
		storeDocs += s.Coll.Store().Len()
		storeBytes += s.Coll.Store().Bytes()
	}
	chunkDocs, chunkBytes := 0, int64(0)
	for i, ch := range c.chunks {
		chunkDocs += ch.Docs
		chunkBytes += ch.Bytes
		if !ch.sumExact {
			t.Fatalf("%s: chunk %d has no exact cells", label, i)
		}
		if inChunk[i] != ch.Docs {
			t.Fatalf("%s: chunk %d counts %d documents, its shard holds %d in range", label, i, ch.Docs, inChunk[i])
		}
		// Maintained through inserts, splits and migrations or
		// rebuilt by recovery, the list is the decoded documents' own.
		if !slices.Equal(ch.cells, cells[i]) {
			t.Fatalf("%s: chunk %d keeps cells %v, its decoded documents occupy %v", label, i, ch.cells, cells[i])
		}
	}
	if chunkDocs != storeDocs {
		t.Fatalf("%s: chunks count %d documents, stores hold %d", label, chunkDocs, storeDocs)
	}
	// A split apportions bytes by the chunk's integer mean document
	// size, so the chunk map may undercount — by less than one document
	// per chunk document — and must never overcount.
	if chunkBytes > storeBytes || storeBytes-chunkBytes > int64(storeDocs) {
		t.Fatalf("%s: chunks count %d bytes, stores hold %d", label, chunkBytes, storeBytes)
	}
}

// TestInsertBatchEncodesOnce: between the decoded batch and the stores
// each document is marshalled exactly once, and those bytes are what
// the batch record frames. Counted in heap bytes: one encoding per
// document plus the record body is two copies of the data; a second
// Marshal, or a decode, would be a third.
func TestInsertBatchEncodesOnce(t *testing.T) {
	c := openDurable(t, Options{
		Shards: 2, ChunkMaxBytes: 1 << 30, AutoBalanceEvery: -1,
		Dir: t.TempDir(), Sync: wal.SyncNever,
	})
	if err := c.ShardCollection(hilbertDateKey()); err != nil {
		t.Fatal(err)
	}
	// Warm the indexes, the record table and the journal buffers — with a
	// count that leaves the table mid-page, so the counted batch is not
	// the one in sixteen that opens a new 1 024-slot page.
	if _, _, err := c.InsertBatch("warm", wideDocs(40, 4000)); err != nil {
		t.Fatal(err)
	}
	docs := wideDocs(41, 64)
	var encoded uint64
	for _, d := range docs {
		encoded += uint64(bson.RawSize(d))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if applied, _, err := c.InsertBatch("counted", docs); err != nil || applied != len(docs) {
		t.Fatalf("applied %d, err %v", applied, err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated < 2*encoded || allocated >= 3*encoded {
		t.Fatalf("a %d-byte batch allocated %d bytes, want two copies (documents + record body) and under three",
			encoded, allocated)
	}
	if objects := after.Mallocs - before.Mallocs; objects > uint64(2*len(docs)) {
		t.Fatalf("a %d-document batch allocated %d objects, want about one per document", len(docs), objects)
	}
}
