package sharding

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bson"
	"repro/internal/index"
	"repro/internal/keyenc"
	"repro/internal/query"
)

var updateJournalGolden = flag.Bool("update-journal-golden", false,
	"rewrite testdata/journal_golden.json from the current tree")

// journalBytes encodes one body of every journal op and one snapshot
// payload from fixed inputs chosen to cross the encodings' corners:
// multi-byte and negative varints, empty and non-empty strings, a
// record id past one varint byte.
func journalBytes(t *testing.T) map[string]string {
	t.Helper()
	opts := Options{Shards: 4, ChunkMaxBytes: 600, AutoBalanceEvery: -1, CollectionName: "golden"}
	geoIndex := index.Definition{
		Name:    "loc_date",
		GeoBits: 26,
		Fields: []index.Field{
			{Name: "location", Kind: index.Geo2DSphere},
			{Name: "date", Kind: index.Ascending},
		},
	}
	zones := ZonesFromSplits("hilbertIndex", []any{int64(1024), int64(3000)}, 4)
	docs := ingestDocs(77, 12)

	out := map[string]string{
		"init":            hex.EncodeToString(encodeInitBody(opts.withDefaults())),
		"shardCollection": hex.EncodeToString(encodeShardKey(hilbertDateKey())),
		"createIndex":     hex.EncodeToString(encodeIndexDef(geoIndex)),
		"setZones":        hex.EncodeToString(encodeZones(zones)),
		"delete":          hex.EncodeToString(encodeDelete(3, 300)),
		"insertBatch":     hex.EncodeToString(encodeInsertBatch("golden/1", bson.MarshalAll(docs[:2]))),
		"insertBatchNoID": hex.EncodeToString(encodeInsertBatch("", bson.MarshalAll(docs[2:3]))),
		"dropBelow":       hex.EncodeToString(appendBytes(nil, keyenc.Encode(int64(700)))),
	}

	// The snapshot of a small durable cluster that split, moved chunks
	// into zones, deleted, and remembers a batch id.
	o := durOpts(t.TempDir(), nil)
	o.ChunkMaxBytes, o.AutoBalanceEvery = 600, 4
	c := openDurable(t, o)
	defer c.Close()
	steps := []durOp{
		func(c *Cluster) error { return c.ShardCollection(hilbertDateKey()) },
		func(c *Cluster) error { return c.CreateIndex(geoIndex) },
		func(c *Cluster) error { _, _, err := c.InsertBatch("golden/1", docs[:8]); return err },
		func(c *Cluster) error { return c.Insert(docs[8]) },
		func(c *Cluster) error { return c.SetZones(zones) },
		func(c *Cluster) error { _, _, err := c.InsertBatch("golden/2", docs[9:]); return err },
		func(c *Cluster) error {
			_, err := c.Delete(query.Cmp{Field: "hilbertIndex", Op: query.OpLT, Value: int64(800)})
			return err
		},
		func(c *Cluster) error { c.Balance(); return nil },
	}
	applyOps(t, c, steps)
	c.mu.Lock()
	out["snapshot"] = hex.EncodeToString(c.encodeSnapshotLocked())
	c.mu.Unlock()
	return out
}

// TestJournalBytesGolden pins the on-disk encodings: every op body and
// the snapshot payload must stay byte-identical to the golden, which was
// written by the hand-rolled varint loops encoding/binary replaced.
func TestJournalBytesGolden(t *testing.T) {
	got := journalBytes(t)
	path := filepath.Join("testdata", "journal_golden.json")
	if *updateJournalGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d encodings, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", name, got[name], w)
		}
	}
}

// TestDecodersRefuseHugeCounts: every element count a decoder reads is
// checked against the bytes that remain before it sizes an allocation or
// bounds a loop, so a body claiming 2^40 elements fails at once.
func TestDecodersRefuseHugeCounts(t *testing.T) {
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20} // uvarint 2^40
	mustFail := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: a count of 2^40 was accepted", name)
		}
	}
	_, err := decodeShardKey(append([]byte{byte(RangeSharding)}, huge...))
	mustFail("shard-key fields", err)
	_, err = decodeIndexDef(append([]byte{1, 'x', 26}, huge...))
	mustFail("index-definition fields", err)
	_, err = decodeZones(huge)
	mustFail("zones", err)
	_, _, err = decodeInsertBatch(append([]byte{1, 'b'}, huge...))
	mustFail("batch documents", err)

	// The snapshot's counts, each corrupted in turn: cut a valid payload
	// at the count and splice the huge one in.
	golden := journalBytes(t)["snapshot"]
	payload, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	d := &decoder{buf: payload}
	d.uvarint() // version
	d.uvarint() // lsn
	if _, err := decodeInitBody(d, Options{}); err != nil {
		t.Fatal(err)
	}
	d.byte()  // sharded
	d.bytes() // shard key
	atChunks := len(payload) - len(d.buf)
	opts := durOpts("", nil)
	_, err = clusterFromSnapshot(append(append([]byte(nil), payload[:atChunks]...), huge...), opts)
	mustFail("snapshot chunks", err)
	if _, err := clusterFromSnapshot(payload, opts); err != nil {
		t.Fatalf("the unmodified payload must decode: %v", err)
	}
}
