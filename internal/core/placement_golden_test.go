package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/btree"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/sharding"
	"repro/internal/storage"
)

var updatePlacementGolden = flag.Bool("update-placement-golden", false,
	"rewrite testdata/placement_golden.json from the current tree")

// placement is everything the write path decides about where bytes
// live: the chunk map, the record ids each shard assigned, the stored
// bytes, and the key sequence of every index.
type placement struct {
	Splits      int              `json:"splits"`
	Migrations  int              `json:"migrations"`
	Docs        int              `json:"docs"`
	Fingerprint string           `json:"fingerprint"`
	Shards      []shardPlacement `json:"shards"`
	Chunks      []string         `json:"chunks"` // "min max shard docs bytes"
}

type shardPlacement struct {
	NextID        uint64 `json:"next_id"`
	Docs          int    `json:"docs"`
	Bytes         int64  `json:"bytes"`
	ShardKeyIndex string `json:"shardkey_index_sha256"`
	IDIndex       string `json:"id_index_sha256"`
}

func placementOf(s *core.Store) placement {
	c := s.Cluster()
	st := c.ClusterStats()
	docs, sum := s.Fingerprint()
	p := placement{
		Splits:      st.Splits,
		Migrations:  st.Migrations,
		Docs:        docs,
		Fingerprint: fmt.Sprintf("%016x", sum),
	}
	for _, sh := range c.Shards() {
		p.Shards = append(p.Shards, shardPlacement{
			NextID:        uint64(sh.Coll.Store().NextID()),
			Docs:          sh.Coll.Store().Len(),
			Bytes:         sh.Coll.Store().Bytes(),
			ShardKeyIndex: keySequenceDigest(sh.Coll.Index(sharding.ShardKeyIndexName)),
			IDIndex:       keySequenceDigest(sh.Coll.Index(collection.IDIndexName)),
		})
	}
	for _, ch := range c.Chunks() {
		p.Chunks = append(p.Chunks, fmt.Sprintf("%x %x %d %d %d", ch.Min, ch.Max, ch.Shard, ch.Docs, ch.Bytes))
	}
	return p
}

// keySequenceDigest hashes every (key, record id) of the index in key
// order, each key length-prefixed.
func keySequenceDigest(ix *index.Index) string {
	h := sha256.New()
	all := index.Interval{Low: btree.Unbounded(), High: btree.Unbounded()}
	ix.ScanInterval(all, func(key []byte, id storage.RecordID) bool {
		fmt.Fprintf(h, "%d:%x=%d\n", len(key), key, id)
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlacementGolden pins the write path's placement decisions to a
// golden file: a seeded bulk load and balance on six shards, 64-document
// idempotent batches across further splits and migrations, then close
// and journal recovery. The chunk map, per-shard
// record-id counters, content fingerprint and every index's key
// sequence must equal the golden before the close and after recovery.
func TestPlacementGolden(t *testing.T) {
	const (
		loaded    = 20000
		batchDocs = 64
		batches   = 160
	)
	recs := data.GenerateReal(data.RealConfig{Records: loaded + batches*batchDocs, Seed: 11})
	dir := t.TempDir()
	s, err := core.Open(core.Config{
		Approach:         core.Hil,
		Shards:           6,
		ChunkMaxBytes:    128 << 10,
		AutoBalanceEvery: 1024,
		Dir:              dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(recs[:loaded]); err != nil {
		t.Fatal(err)
	}
	before := s.Cluster().ClusterStats()
	for k := 0; k < batches; k++ {
		batch := recs[loaded+k*batchDocs : loaded+(k+1)*batchDocs]
		applied, dup, err := s.InsertRecords(context.Background(), fmt.Sprintf("golden%04d", k), batch)
		if err != nil || dup || applied != batchDocs {
			t.Fatalf("batch %d: applied %d dup %v err %v", k, applied, dup, err)
		}
	}
	after := s.Cluster().ClusterStats()
	if splits, moves := after.Splits-before.Splits, after.Migrations-before.Migrations; splits < 20 || moves < 10 {
		t.Fatalf("batches crossed %d splits and %d migrations, want at least 20 and 10", splits, moves)
	}

	live := placementOf(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := core.OpenDir(dir, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recovered := placementOf(r)

	path := filepath.Join("testdata", "placement_golden.json")
	if *updatePlacementGolden {
		blob, err := json.MarshalIndent(live, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want placement
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	comparePlacement(t, "live", live, want)
	comparePlacement(t, "recovered", recovered, want)
}

func comparePlacement(t *testing.T, name string, got, want placement) {
	t.Helper()
	if got.Splits != want.Splits || got.Migrations != want.Migrations {
		t.Errorf("%s: %d splits / %d migrations, golden has %d / %d",
			name, got.Splits, got.Migrations, want.Splits, want.Migrations)
	}
	if got.Docs != want.Docs || got.Fingerprint != want.Fingerprint {
		t.Errorf("%s: fingerprint %d/%s, golden has %d/%s",
			name, got.Docs, got.Fingerprint, want.Docs, want.Fingerprint)
	}
	if len(got.Shards) != len(want.Shards) {
		t.Fatalf("%s: %d shards, golden has %d", name, len(got.Shards), len(want.Shards))
	}
	for i := range got.Shards {
		if got.Shards[i] != want.Shards[i] {
			t.Errorf("%s: shard %d is %+v, golden has %+v", name, i, got.Shards[i], want.Shards[i])
		}
	}
	if len(got.Chunks) != len(want.Chunks) {
		t.Fatalf("%s: %d chunks, golden has %d", name, len(got.Chunks), len(want.Chunks))
	}
	for i := range got.Chunks {
		if got.Chunks[i] != want.Chunks[i] {
			t.Errorf("%s: chunk %d is %q, golden has %q", name, i, got.Chunks[i], want.Chunks[i])
		}
	}
}
