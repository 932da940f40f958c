package sharding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/keyenc"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wal"
)

// durOp is one deterministic cluster mutation of a durability
// workload. The reference cluster and every durable cluster under
// test apply the same sequence, so any state divergence is a recovery
// bug, not workload noise.
type durOp func(c *Cluster) error

// durBatch is the durOp of one InsertBatchRaw: the documents are
// encoded afresh for every cluster (each owns the bytes it stores), and
// the outcome must be exactly the one named — unless the store crashed
// under it, which the crash matrices detect on the next operation.
func durBatch(id string, docs []*bson.Document, wantApplied int, wantDup bool) durOp {
	return func(c *Cluster) error {
		applied, dup, err := c.InsertBatchRaw(id, bson.MarshalAll(docs))
		if errors.Is(err, wal.ErrCrashed) {
			return err
		}
		if applied != wantApplied || dup != wantDup || (err == nil) != (wantApplied == len(docs) || wantDup) {
			return fmt.Errorf("batch %q: applied=%d dup=%v err=%v, want applied=%d dup=%v",
				id, applied, dup, err, wantApplied, wantDup)
		}
		return nil
	}
}

// durWorkload builds a deterministic operation sequence that crosses
// every record kind of the journal: the DDL first (shard key, then a
// 2dsphere index), then single inserts with occasional batches, and — once each, at fixed fractions of n — an explicit
// balance, a batch holding a document the 2dsphere index rejects (it is
// stored, fails and rolls back inside the batch, consuming a record id;
// this store has no unique index, so a duplicate _id would not fail), a
// checkpoint, the retry of an already-applied batch id, and a zone
// change.
// Documents are generated once, so every cluster stores byte-identical
// records.
func durWorkload(n int, seed int64) []durOp {
	rng := rand.New(rand.NewSource(seed))
	gen := bson.NewObjectIDGen(uint64(seed))
	newDoc := func() *bson.Document {
		p := geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
		at := baseTime.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		return stDoc(gen, p, at, int64(rng.Intn(4096)))
	}
	newDocs := func(k int) []*bson.Document {
		docs := make([]*bson.Document, k)
		for i := range docs {
			docs[i] = newDoc()
		}
		return docs
	}
	first := newDocs(5) // the batch that is later retried under its id
	geoIndex := index.Definition{
		Name:   "location_2dsphere",
		Fields: []index.Field{{Name: "location", Kind: index.Geo2DSphere}},
	}
	ops := []durOp{
		func(c *Cluster) error { return c.ShardCollection(hilbertDateKey()) },
		func(c *Cluster) error { return c.CreateIndex(geoIndex) },
	}
	for len(ops) < n {
		switch len(ops) {
		case n / 4:
			ops = append(ops, durBatch("dur/first", first, len(first), false))
			continue
		case n/4 + 1:
			ops = append(ops, func(c *Cluster) error { c.Balance(); return nil })
			continue
		case n / 3:
			docs := newDocs(3)
			docs[1].Set("location", "not a point")
			ops = append(ops, durBatch("dur/rejected", docs, 2, false))
			continue
		case n / 2:
			ops = append(ops, func(c *Cluster) error {
				if !c.Durable() {
					return nil // the in-memory reference has nothing to checkpoint
				}
				return c.Checkpoint()
			})
			continue
		case n/2 + 3:
			ops = append(ops, durBatch("dur/first", first, 0, true))
			continue
		case 2 * n / 3:
			zones := ZonesFromSplits("hilbertIndex", []any{int64(1024), int64(2048), int64(3072)}, 4)
			ops = append(ops, func(c *Cluster) error { return c.SetZones(zones) })
			continue
		}
		if rng.Intn(16) == 0 {
			docs := newDocs(1 + rng.Intn(8))
			ops = append(ops, durBatch(fmt.Sprintf("dur/%d", len(ops)), docs, len(docs), false))
			continue
		}
		doc := newDoc()
		ops = append(ops, func(c *Cluster) error { return c.Insert(doc) })
	}
	return ops
}

// insertWorkload is an insert-only sequence (after the DDL), so the
// journal LSN of record k is exactly k+1 and tests can map a recovery
// point back to an operation index.
func insertWorkload(n int, seed int64) []durOp {
	rng := rand.New(rand.NewSource(seed))
	gen := bson.NewObjectIDGen(uint64(seed))
	ops := []durOp{
		func(c *Cluster) error { return c.ShardCollection(hilbertDateKey()) },
	}
	for len(ops) < n {
		p := geo.Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
		at := baseTime.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		doc := stDoc(gen, p, at, int64(rng.Intn(4096)))
		ops = append(ops, func(c *Cluster) error { return c.Insert(doc) })
	}
	return ops
}

func durOpts(dir string, fs wal.FS) Options {
	o := smallOpts()
	o.AutoBalanceEvery = 64 // balance often, so the matrix crosses migrations
	o.Parallel = 1
	o.Dir = dir
	o.FS = fs
	o.Sync = wal.SyncNever
	return o
}

// durProbes is a fixed query workload whose results recovered clusters
// must reproduce exactly.
var durProbes = []query.Filter{
	cellRange(int64(0), int64(1024)),
	cellWindow(int64(2000), int64(2300), baseTime, baseTime.Add(10*24*time.Hour)),
}

// clusterState is everything a recovered cluster must reproduce:
// cluster statistics, the exact chunk map, the content fingerprint
// and the results of the probe queries.
type clusterState struct {
	stats  Stats
	chunks []Chunk
	docs   int
	sum    uint64
	counts []int
}

// walkFingerprint is the reference for the maintained content
// fingerprint: every stored document's docChecksum, summed by a walk
// of every shard's store.
func walkFingerprint(c *Cluster) (docs int, checksum uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, s := range c.shards {
		s.Coll.Store().Walk(func(_ storage.RecordID, raw []byte) bool {
			docs++
			checksum += docChecksum(raw)
			return true
		})
	}
	return docs, checksum
}

// captureState also holds the maintained content fingerprint to the
// walk, so every state a test captures — live, reference or recovered —
// checks it.
func captureState(t testing.TB, c *Cluster) clusterState {
	t.Helper()
	st := clusterState{stats: c.ClusterStats(), chunks: c.Chunks()}
	// Index size estimates depend on the tree's insertion history
	// (fill-factor bookkeeping), which a snapshot restore legitimately
	// rebuilds by backfill; the index *content* is covered by the
	// probe queries, so the estimate is excluded from equality.
	st.stats.IndexBytes = 0
	for i := range st.stats.PerShard {
		st.stats.PerShard[i].IndexBytes = 0
	}
	if _, sharded := c.ShardKeyOf(); sharded {
		for _, f := range durProbes {
			st.counts = append(st.counts, c.Query(f).TotalReturned)
		}
	}
	st.docs, st.sum = c.ContentFingerprint()
	if wd, ws := walkFingerprint(c); wd != st.docs || ws != st.sum {
		t.Fatalf("maintained fingerprint %d/%016x, walk %d/%016x", st.docs, st.sum, wd, ws)
	}
	return st
}

func requireStateEqual(t *testing.T, label string, got, want clusterState) {
	t.Helper()
	if got.docs != want.docs || got.sum != want.sum {
		t.Fatalf("%s: fingerprint %d/%016x, want %d/%016x",
			label, got.docs, got.sum, want.docs, want.sum)
	}
	if !reflect.DeepEqual(got.chunks, want.chunks) {
		t.Fatalf("%s: chunk maps differ\n got %+v\nwant %+v", label, got.chunks, want.chunks)
	}
	if !reflect.DeepEqual(got.counts, want.counts) {
		t.Fatalf("%s: probe query results %v, want %v", label, got.counts, want.counts)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("%s: cluster stats differ\n got %+v\nwant %+v", label, got.stats, want.stats)
	}
}

func applyOps(t testing.TB, c *Cluster, ops []durOp) {
	t.Helper()
	for i, op := range ops {
		if err := op(c); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func openDurable(t testing.TB, opts Options) *Cluster {
	t.Helper()
	c, err := OpenCluster(opts)
	if err != nil {
		t.Fatalf("OpenCluster: %v", err)
	}
	return c
}

// copyStoreDir clones a store directory (flat: journals + snapshots +
// manifest) so one loaded base state can seed many crash runs.
func copyStoreDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableFreshOpenEmptyDir: an empty directory yields a fresh,
// journaled cluster; reopening it recovers everything written.
func TestDurableFreshOpenEmptyDir(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, durOpts(dir, nil))
	if !c.Durable() {
		t.Fatal("OpenCluster returned a non-durable cluster")
	}
	ops := durWorkload(60, 3)
	applyOps(t, c, ops)
	want := captureState(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Every record kind went to the one journal of the directory.
	if wals, err := filepath.Glob(filepath.Join(dir, "*.wal")); err != nil || len(wals) != 1 || filepath.Base(wals[0]) != journalName {
		t.Fatalf("store directory journals = %v (err %v), want exactly %s", wals, err, journalName)
	}

	r := openDurable(t, durOpts(dir, nil))
	requireStateEqual(t, "reopen", captureState(t, r), want)
	// The reopened cluster keeps accepting writes.
	gen := bson.NewObjectIDGen(99)
	if err := r.Insert(stDoc(gen, geo.Point{Lon: 23.5, Lat: 37.5}, baseTime, 100)); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableJournalOnlyRecovery: no checkpoint was ever taken; the
// whole state is rebuilt by replaying the journal from genesis and
// must match an in-memory cluster that ran the same operations.
func TestDurableJournalOnlyRecovery(t *testing.T) {
	ops := durWorkload(400, 11)
	ref := NewCluster(durOpts("", nil))
	applyOps(t, ref, ops)
	ref.Balance()

	dir := t.TempDir()
	c := openDurable(t, durOpts(dir, nil))
	applyOps(t, c, ops)
	c.Balance()
	// Simulated crash: the cluster is abandoned without Close or Sync
	// (the OS writes all went through; SyncNever only skips fsync).
	want := captureState(t, ref)
	requireStateEqual(t, "pre-crash", captureState(t, c), want)

	r := openDurable(t, durOpts(dir, nil))
	requireStateEqual(t, "journal-only recovery", captureState(t, r), want)
	if r.LSN() == 0 {
		t.Fatal("recovered cluster reports LSN 0")
	}
	r.Close()
}

// TestDurableSnapshotOnlyRecovery: a checkpoint reset the journals, so
// recovery restores purely from the snapshot.
func TestDurableSnapshotOnlyRecovery(t *testing.T) {
	ops := durWorkload(300, 17)
	ref := NewCluster(durOpts("", nil))
	applyOps(t, ref, ops)

	dir := t.TempDir()
	c := openDurable(t, durOpts(dir, nil))
	applyOps(t, c, ops)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if size, err := wal.NewOSFS(dir).Size(journalName); err != nil || size != 0 {
		t.Fatalf("journal not reset after checkpoint: size=%d err=%v", size, err)
	}

	r := openDurable(t, durOpts(dir, nil))
	requireStateEqual(t, "snapshot-only recovery", captureState(t, r), captureState(t, ref))
	r.Close()
}

// TestDurableSnapshotPlusTailRecovery: state = snapshot + journal tail.
func TestDurableSnapshotPlusTailRecovery(t *testing.T) {
	ops := durWorkload(300, 23)
	ref := NewCluster(durOpts("", nil))
	applyOps(t, ref, ops)

	dir := t.TempDir()
	c := openDurable(t, durOpts(dir, nil))
	applyOps(t, c, ops[:200])
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, c, ops[200:])
	// Crash without Close.

	r := openDurable(t, durOpts(dir, nil))
	requireStateEqual(t, "snapshot+tail recovery", captureState(t, r), captureState(t, ref))
	r.Close()
}

// TestDurableMidCheckpointCrashReplaysOnce: the snapshot lands but the
// crash interrupts the journal reset, leaving records the snapshot
// already covers. Recovery must skip them (LSN <= snapshot LSN), not
// apply them twice.
func TestDurableMidCheckpointCrashReplaysOnce(t *testing.T) {
	ops := durWorkload(150, 31)
	ref := NewCluster(durOpts("", nil))
	applyOps(t, ref, ops)

	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.NewOSFS(dir))
	c := openDurable(t, durOpts(dir, ffs))
	applyOps(t, c, ops)

	// Fail the journal's re-creation: the snapshot is installed, but
	// the journal still carries its full record history.
	ffs.Before(func(op wal.Op, name string) error {
		if op == wal.OpCreate && name == journalName {
			return errors.New("injected crash during journal reset")
		}
		return nil
	})
	if err := c.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded despite injected reset failure")
	}

	want := captureState(t, ref)
	r := openDurable(t, durOpts(dir, nil))
	requireStateEqual(t, "mid-checkpoint recovery", captureState(t, r), want)

	// The reopened cluster must stay consistent through further writes
	// and a clean checkpoint.
	tail := insertWorkload(30, 37)[1:] // skip the DDL op
	applyOps(t, r, tail)
	applyOps(t, ref, tail)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openDurable(t, durOpts(dir, nil))
	requireStateEqual(t, "post-recovery checkpoint", captureState(t, r2), captureState(t, ref))
	r2.Close()
}

// TestDurableBitFlipRollsBackToPrefix: one flipped bit in the middle
// of the journal must roll the whole cluster back to the last
// consistent operation before the corrupt frame — never a torn or
// reordered state.
func TestDurableBitFlipRollsBackToPrefix(t *testing.T) {
	const n = 120
	ops := insertWorkload(n, 41)

	// Reference states after every op (LSN of insert k's record is
	// k+2: opInit, opShardCollection, then one record per insert).
	ref := NewCluster(durOpts("", nil))
	expected := make([]clusterState, 0, len(ops)+1)
	expected = append(expected, captureState(t, ref))
	for _, op := range ops {
		if err := op(ref); err != nil {
			t.Fatal(err)
		}
		expected = append(expected, captureState(t, ref))
	}

	dir := t.TempDir()
	c := openDurable(t, durOpts(dir, nil))
	applyOps(t, c, ops)
	fullLSN := c.LSN()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the middle of the journal.
	ffs := wal.NewFaultFS(wal.NewOSFS(dir))
	size, err := ffs.Size(journalName)
	if err != nil || size == 0 {
		t.Fatalf("journal holds no records: size=%d err=%v", size, err)
	}
	if err := ffs.FlipBit(journalName, size/2, 5); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, durOpts(dir, nil))
	lsn := r.LSN()
	if lsn >= fullLSN {
		t.Fatalf("recovered LSN %d not rolled back (full %d)", lsn, fullLSN)
	}
	if lsn < 2 {
		t.Fatalf("recovered LSN %d lost the DDL prefix", lsn)
	}
	requireStateEqual(t, fmt.Sprintf("bit flip (lsn %d)", lsn),
		captureState(t, r), expected[lsn-1])
	r.Close()
}

// TestDurableCrashMatrixGenesis crashes a journal-only cluster at
// every operation boundary (torn exactly between frames) and asserts
// the recovered cluster equals the reference state after precisely the
// persisted prefix of operations.
func TestDurableCrashMatrixGenesis(t *testing.T) {
	ops := durWorkload(240, 5)

	// Reference pass: expected state after each op.
	ref := NewCluster(durOpts("", nil))
	expected := make([]clusterState, 0, len(ops)+1)
	expected = append(expected, captureState(t, ref))
	for _, op := range ops {
		if err := op(ref); err != nil {
			t.Fatal(err)
		}
		expected = append(expected, captureState(t, ref))
	}

	// Clean durable pass: cumulative journal bytes after each op are
	// the crash budgets of the matrix.
	cleanDir := t.TempDir()
	ffs := wal.NewFaultFS(wal.NewOSFS(cleanDir))
	c := openDurable(t, durOpts(cleanDir, ffs))
	bytesAfter := make([]int64, 0, len(ops)+1)
	w, _ := ffs.Stats()
	bytesAfter = append(bytesAfter, w)
	for _, op := range ops {
		if err := op(c); err != nil {
			t.Fatal(err)
		}
		w, _ := ffs.Stats()
		bytesAfter = append(bytesAfter, w)
	}
	c.Close()

	step := 1
	if testing.Short() {
		step = 13
	}
	for i := 0; i <= len(ops); i += step {
		dir := t.TempDir()
		crashFS := wal.NewFaultFS(wal.NewOSFS(dir))
		crashFS.CrashAfterBytes(bytesAfter[i])
		cc, err := OpenCluster(durOpts(dir, crashFS))
		if err != nil {
			t.Fatalf("boundary %d: open: %v", i, err)
		}
		for _, op := range ops {
			if err := op(cc); err != nil {
				break // the crash point
			}
		}
		if i < len(ops) && !crashFS.Crashed() {
			t.Fatalf("boundary %d: workload finished without crashing", i)
		}

		r := openDurable(t, durOpts(dir, nil))
		requireStateEqual(t, fmt.Sprintf("boundary %d/%d", i, len(ops)),
			captureState(t, r), expected[i])
		r.Close()
	}
}

// TestDurableCrashMatrixCheckpointTail is the large-scale acceptance
// matrix: a 10k-document checkpointed base state plus a mixed journal
// tail, crash-tested at tail operation boundaries. Each recovered
// cluster must match the reference state exactly — chunk map, stats,
// fingerprint and query results.
func TestDurableCrashMatrixCheckpointTail(t *testing.T) {
	const baseDocs = 10_000
	base := t.TempDir()
	{
		c := openDurable(t, durOpts(base, nil))
		applyOps(t, c, insertWorkload(baseDocs+1, 7))
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tail := durWorkload(151, 9)[1:] // drop the DDL op: the base is already sharded

	// Oracle pass: reopen a copy and record the expected state after
	// every tail op.
	oracleDir := t.TempDir()
	copyStoreDir(t, base, oracleDir)
	oracle := openDurable(t, durOpts(oracleDir, nil))
	if docs, _ := oracle.ContentFingerprint(); docs != baseDocs {
		t.Fatalf("base recovered %d docs, want %d", docs, baseDocs)
	}
	expected := make([]clusterState, 0, len(tail)+1)
	expected = append(expected, captureState(t, oracle))
	for i, op := range tail {
		if err := op(oracle); err != nil {
			t.Fatalf("tail op %d: %v", i, err)
		}
		expected = append(expected, captureState(t, oracle))
	}
	oracle.Close()

	// Byte pass: crash budgets per tail boundary.
	byteDir := t.TempDir()
	copyStoreDir(t, base, byteDir)
	ffs := wal.NewFaultFS(wal.NewOSFS(byteDir))
	c := openDurable(t, durOpts(byteDir, ffs))
	bytesAfter := make([]int64, 0, len(tail)+1)
	w, _ := ffs.Stats()
	bytesAfter = append(bytesAfter, w)
	for i, op := range tail {
		if err := op(c); err != nil {
			t.Fatalf("tail op %d: %v", i, err)
		}
		w, _ := ffs.Stats()
		bytesAfter = append(bytesAfter, w)
	}
	c.Close()

	step := 3
	if testing.Short() {
		step = 25
	}
	for i := 0; i <= len(tail); i += step {
		dir := t.TempDir()
		copyStoreDir(t, base, dir)
		crashFS := wal.NewFaultFS(wal.NewOSFS(dir))
		crashFS.CrashAfterBytes(bytesAfter[i])
		cc, err := OpenCluster(durOpts(dir, crashFS))
		if err != nil {
			t.Fatalf("boundary %d: open: %v", i, err)
		}
		for _, op := range tail {
			if err := op(cc); err != nil {
				break
			}
		}
		if i < len(tail) && !crashFS.Crashed() {
			t.Fatalf("boundary %d: tail finished without crashing", i)
		}

		r := openDurable(t, durOpts(dir, nil))
		requireStateEqual(t, fmt.Sprintf("tail boundary %d/%d", i, len(tail)),
			captureState(t, r), expected[i])
		r.Close()
	}
}

// TestDurableUnshardedCluster: journaling also covers the unsharded
// single-shard path.
func TestDurableUnshardedCluster(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, durOpts(dir, nil))
	gen := bson.NewObjectIDGen(5)
	for i := 0; i < 40; i++ {
		at := baseTime.Add(time.Duration(i) * time.Hour)
		if err := c.Insert(stDoc(gen, geo.Point{Lon: 23.1, Lat: 37.1}, at, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	docs, sum := c.ContentFingerprint()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, durOpts(dir, nil))
	rdocs, rsum := r.ContentFingerprint()
	if rdocs != docs || rsum != sum {
		t.Fatalf("recovered %d/%016x, want %d/%016x", rdocs, rsum, docs, sum)
	}
	r.Close()
}

// TestOpenRefusesPerShardJournalLayout: a directory written before the
// journal was one file — a shardNNN.wal beside the journal, or a
// per-document insert record inside it — is refused with an error that
// names the layout, and not one byte of it changes (the torn tail a
// normal open would cut is still there afterwards).
func TestOpenRefusesPerShardJournalLayout(t *testing.T) {
	initRec := wal.Record{LSN: 1, Op: opInit, Body: encodeInitBody(durOpts("", nil).withDefaults())}
	doc := bson.Marshal(ingestDocs(3, 1)[0])
	torn := []byte{0xde, 0xad} // an incomplete frame header
	cases := map[string]map[string][]byte{
		"shard journal beside the journal": {
			journalName:    append(wal.AppendFrame(nil, initRec), torn...),
			"shard000.wal": wal.AppendFrame(nil, wal.Record{LSN: 2, Op: opInsert, Body: doc}),
		},
		"meta.wal and shard journals": {
			"meta.wal":     wal.AppendFrame(nil, initRec),
			"shard003.wal": append(wal.AppendFrame(nil, wal.Record{LSN: 2, Op: opInsert, Body: doc}), torn...),
		},
		"per-document insert record in the journal": {
			journalName: append(wal.AppendFrame(wal.AppendFrame(nil, initRec),
				wal.Record{LSN: 2, Op: opInsert, Body: doc}), torn...),
		},
	}
	for name, files := range cases {
		dir := t.TempDir()
		for f, data := range files {
			if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := OpenCluster(durOpts(dir, nil))
		if err == nil {
			c.Close()
			t.Fatalf("%s: OpenCluster accepted the directory", name)
		}
		if !errors.Is(err, errOldLayout) || !strings.Contains(err.Error(), "per-shard journal layout") {
			t.Fatalf("%s: error does not name the layout: %v", name, err)
		}
		entries, rerr := os.ReadDir(dir)
		if rerr != nil || len(entries) != len(files) {
			t.Fatalf("%s: directory now holds %d entries (err %v), want %d", name, len(entries), rerr, len(files))
		}
		for f, data := range files {
			got, rerr := os.ReadFile(filepath.Join(dir, f))
			if rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: %s changed (%d bytes, was %d; err %v)", name, f, len(got), len(data), rerr)
			}
		}
	}
}

// TestOpenRefusesRetentionRecord: a journal holding a record of a
// retired op — an op-9 drop below a shard-key prefix, which only the
// removed TTL retention loop wrote, or an op-7 document delete — behind
// records a store can replay is refused with an error that names it,
// and not one byte of the directory changes.
func TestOpenRefusesRetentionRecord(t *testing.T) {
	opts := durOpts("", nil).withDefaults()
	for _, tc := range []struct {
		name    string
		op      uint8
		body    []byte
		want    error
		message string
	}{
		{"retention drop", opDropBelow, appendBytes(nil, keyenc.Encode(int64(700))), errRetentionRecord, "TTL retention"},
		// Shard 0, record 1: the first document of the batch before it.
		{"document delete", opDelete, binary.AppendUvarint(binary.AppendUvarint(nil, 0), 1), errDeleteRecord, "document deletes"},
	} {
		var journal []byte
		for _, rec := range []wal.Record{
			{LSN: 1, Op: opInit, Body: encodeInitBody(opts)},
			{LSN: 2, Op: opShardCollection, Body: encodeShardKey(hilbertDateKey())},
			{LSN: 3, Op: opInsertBatch, Body: encodeInsertBatch("b1", bson.MarshalAll(ingestDocs(3, 4)))},
			{LSN: 4, Op: tc.op, Body: tc.body},
		} {
			journal = wal.AppendFrame(journal, rec)
		}
		journal = append(journal, 0xde, 0xad) // a torn tail a normal open would cut
		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCluster(durOpts(dir, nil))
		if err == nil {
			c.Close()
			t.Fatalf("%s: OpenCluster replayed the record", tc.name)
		}
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.message) {
			t.Fatalf("%s: error does not name the record: %v", tc.name, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 {
			t.Fatalf("%s: directory holds %d entries (err %v), want the journal alone", tc.name, len(entries), err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, journal) {
			t.Fatalf("%s: journal changed (%d bytes, was %d; err %v)", tc.name, len(got), len(journal), err)
		}
	}
}
