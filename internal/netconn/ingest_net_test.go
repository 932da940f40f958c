package netconn

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bson"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/leakcheck"
	"repro/internal/sharding"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
)

var testSecret = []byte("st-cluster-secret")

// ingestRecords generates n records disjoint from testRecords (later
// times), so inserted docs are distinguishable from the preload.
func ingestRecords(seed int64, n int) []core.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{
			Point: geo.Point{
				Lon: testExtent.Min.Lon + rng.Float64()*testExtent.Width(),
				Lat: testExtent.Min.Lat + rng.Float64()*testExtent.Height(),
			},
			Time:   testStart.Add(60*24*time.Hour + time.Duration(i)*time.Second),
			Fields: bson.D{{Key: "vehicleId", Value: int64(100 + i%7)}},
		}
	}
	return recs
}

func mustDocs(t testing.TB, s *core.Store, recs []core.Record) []*bson.Document {
	t.Helper()
	docs := make([]*bson.Document, len(recs))
	for i, rec := range recs {
		doc, err := s.Document(rec)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = doc
	}
	return docs
}

// TestAuthHandshake: the mutual HMAC challenge. Matching secrets
// connect; a missing, wrong, or stripped secret fails closed with a
// structured error before any op executes.
func TestAuthHandshake(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, core.Hil, 3, 600)
	addrs := startServers(t, s, 1, ServerOptions{AuthSecret: testSecret})

	// Matching secrets: the full handshake (hello, server proof,
	// client proof, accept) and then real ops.
	rc := connectRemote(t, s, addrs, Options{AuthSecret: testSecret})
	if err := rc.Covers(len(s.Cluster().Shards())); err != nil {
		t.Fatal(err)
	}

	// No secret configured on the client.
	if _, err := Connect(addrs, Options{}); err == nil || !strings.Contains(err.Error(), "requires authentication") {
		t.Fatalf("secretless client: %v", err)
	}
	// Wrong secret: the SERVER proof fails verification first — the
	// client never even sends its own proof to an impostor.
	if _, err := Connect(addrs, Options{AuthSecret: []byte("wrong")}); err == nil || !strings.Contains(err.Error(), "failed the server authentication challenge") {
		t.Fatalf("wrong-secret client: %v", err)
	}

	// Auth stripping: a secret-configured client refuses servers that
	// do not demand authentication.
	open := openStore(t, core.Hil, 3, 600)
	openAddrs := startServers(t, open, 1, ServerOptions{})
	if _, err := Connect(openAddrs, Options{AuthSecret: testSecret}); err == nil || !strings.Contains(err.Error(), "does not require authentication") {
		t.Fatalf("stripped server: %v", err)
	}
}

// TestAuthRouterServer: the router daemon enforces the same challenge
// toward its own clients.
func TestAuthRouterServer(t *testing.T) {
	leakcheck.Check(t)
	s := openStore(t, core.Hil, 3, 600)
	rs := NewRouterServer(s, AdmitOptions{})
	rs.AuthSecret = testSecret
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	cl, err := DialRouter(addr, Options{AuthSecret: testSecret})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(queryMatrix()[0]); err != nil {
		t.Fatalf("authenticated query: %v", err)
	}

	if _, err := DialRouter(addr, Options{}); err == nil || !strings.Contains(err.Error(), "requires authentication") {
		t.Fatalf("secretless router client: %v", err)
	}
	if _, err := DialRouter(addr, Options{AuthSecret: []byte("wrong")}); err == nil || !strings.Contains(err.Error(), "failed the server authentication challenge") {
		t.Fatalf("wrong-secret router client: %v", err)
	}
}

// TestRemoteInsertBroadcast: RemoteConn.InsertBatchRaw reaches every
// daemon, applies exactly once (per-daemon dedup absorbs the
// broadcast fan-out and client retries), and the remote content ends
// up fingerprint-identical to a store that applied the batch locally.
func TestRemoteInsertBroadcast(t *testing.T) {
	leakcheck.Check(t)
	local := openStore(t, core.Hil, 3, 900)
	backend := openStore(t, core.Hil, 3, 900)
	addrs := startServers(t, backend, 2, ServerOptions{})
	rc := connectRemote(t, local, addrs, Options{Mutable: true})

	recs := ingestRecords(71, 40)
	docs := mustDocs(t, local, recs)

	applied, dup, err := rc.InsertBatchRaw(context.Background(), "net-b1", bson.MarshalAll(docs))
	if err != nil || dup || applied != len(docs) {
		t.Fatalf("broadcast insert: applied=%d dup=%v err=%v", applied, dup, err)
	}
	// Client retry with the same batch ID: every daemon answers dup.
	applied, dup, err = rc.InsertBatchRaw(context.Background(), "net-b1", bson.MarshalAll(docs))
	if err != nil || !dup || applied != 0 {
		t.Fatalf("broadcast retry: applied=%d dup=%v err=%v", applied, dup, err)
	}

	// The local store applies the same batch through its own batcher;
	// the two write paths must land on identical bytes.
	if _, _, err := local.InsertBatchRaw(context.Background(), "net-b1", bson.MarshalAll(docs)); err != nil {
		t.Fatal(err)
	}
	ld, ls := local.Fingerprint()
	bd, bs := backend.Fingerprint()
	if ld != bd || ls != bs {
		t.Fatalf("fingerprints diverged: local %d/%016x, backend %d/%016x", ld, ls, bd, bs)
	}

	// The new docs are queryable through the remote conn.
	q := core.STQuery{Rect: testExtent, From: testStart.Add(59 * 24 * time.Hour), To: testStart.Add(61 * 24 * time.Hour)}
	local.Cluster().SetConn(rc)
	got := local.Query(q)
	local.Cluster().SetConn(nil)
	if got.Stats.NReturned != len(docs) {
		t.Fatalf("remote query returned %d new docs, want %d", got.Stats.NReturned, len(docs))
	}
}

// TestRouterInsertEndToEnd: the full production write path — Client →
// RouterServer → local batcher + broadcast to shard daemons — applies
// exactly once everywhere and keeps every process fingerprint-equal.
func TestRouterInsertEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	router := openStore(t, core.Hil, 3, 900)
	backend := openStore(t, core.Hil, 3, 900)
	addrs := startServers(t, backend, 2, ServerOptions{})
	rc := connectRemote(t, router, addrs, Options{Mutable: true})
	router.Cluster().SetConn(rc)
	defer router.Cluster().SetConn(nil)

	rs := NewRouterServer(router, AdmitOptions{})
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	cl, err := DialRouter(addr, Options{Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	docs := mustDocs(t, router, ingestRecords(73, 64))
	raw := make([][]byte, len(docs))
	for i, d := range docs {
		raw[i] = bson.Marshal(d)
	}

	reply, err := cl.Insert("e2e-b1", raw)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Dup || int(reply.Applied) != len(docs) {
		t.Fatalf("insert reply: %+v", reply)
	}
	if reply.LastLSN == 0 && router.Durable() {
		t.Fatal("durable ack without an LSN")
	}
	// Retry: idempotent end to end.
	reply, err = cl.Insert("e2e-b1", raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Dup {
		t.Fatalf("retry not deduplicated: %+v", reply)
	}

	rd, rsum := router.Fingerprint()
	bd, bsum := backend.Fingerprint()
	if rd != bd || rsum != bsum {
		t.Fatalf("router %d/%016x and backend %d/%016x diverged", rd, rsum, bd, bsum)
	}
	if rd != 900+len(docs) {
		t.Fatalf("router holds %d docs, want %d", rd, 900+len(docs))
	}

	// The inserted docs answer queries through the whole stack.
	q := core.STQuery{Rect: testExtent, From: testStart.Add(59 * 24 * time.Hour), To: testStart.Add(61 * 24 * time.Hour)}
	res, err := cl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NReturned != len(docs) {
		t.Fatalf("end-to-end query returned %d, want %d", res.Stats.NReturned, len(docs))
	}
}

// TestWireInsertRefusesForeignCell: a Hilbert store answers counts
// from its index keys, so its wire edge refuses, permanently, a document
// whose hilbertIndex is not the cell of its location — encoded over
// another extent, forged, missing, of another type, or without a point
// — on the router's hop and on a shard daemon's alike, and stores
// nothing of the batch that carries it.
func TestWireInsertRefusesForeignCell(t *testing.T) {
	leakcheck.Check(t)
	router := openStore(t, core.Hil, 3, 300)
	backend := openStore(t, core.Hil, 3, 300)
	addrs := startServers(t, backend, 2, ServerOptions{})
	rc := connectRemote(t, router, addrs, Options{Mutable: true})
	router.Cluster().SetConn(rc)
	defer router.Cluster().SetConn(nil)
	rs := NewRouterServer(router, AdmitOptions{})
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	cl, err := DialRouter(addr, Options{Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	recs := ingestRecords(81, 8)
	good := bson.MarshalAll(mustDocs(t, router, recs))
	star, err := core.NewEncoder(core.Config{Approach: core.HilStar, Shards: 3, DataExtent: testExtent})
	if err != nil {
		t.Fatal(err)
	}
	otherExtent, err := star.Encode(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	edit := func(key string, value any) []byte {
		doc := mustDocs(t, router, recs[:1])[0]
		if value == nil {
			doc.Delete(key)
		} else {
			doc.Set(key, value)
		}
		return bson.Marshal(doc)
	}
	cell := int64(router.Grid().Encode(recs[0].Point))
	bad := map[string][]byte{
		"other extent": otherExtent,
		"forged":       edit(core.FieldHilbert, cell+1),
		"missing":      edit(core.FieldHilbert, nil),
		"float":        edit(core.FieldHilbert, float64(cell)),
		"no point":     edit(core.FieldLoc, nil),
	}
	wantDocs, wantSum := backend.Fingerprint()
	for name, doc := range bad {
		batch := append(append([][]byte{}, good[:4]...), doc)
		_, err := cl.Insert("bad-"+name, batch)
		var se *ServerError
		if !errors.As(err, &se) || se.Transient || IsOverload(err) {
			t.Fatalf("%s through the router: %v, want a permanent refusal", name, err)
		}
		_, _, err = rc.InsertBatchRaw(context.Background(), "bad-"+name, batch)
		var she *sharding.ShardError
		if !errors.As(err, &she) || she.Transient {
			t.Fatalf("%s to the daemons: %v, want a permanent refusal", name, err)
		}
		for _, s := range []*core.Store{router, backend} {
			if d, sum := s.Fingerprint(); d != wantDocs || sum != wantSum {
				t.Fatalf("%s: a refused batch changed a store: %d/%016x, want %d/%016x", name, d, sum, wantDocs, wantSum)
			}
		}
	}
	if reply, err := cl.Insert("good", good); err != nil || int(reply.Applied) != len(good) {
		t.Fatalf("a well-encoded batch after the refusals: %+v, %v", reply, err)
	}
}

// slowJournalFS is a durable store's filesystem whose journal writes
// each take 2ms: an insert then holds its admission slot long enough for
// a flood of concurrent inserts to find the gate full.
func slowJournalFS(dir string) wal.FS {
	ffs := wal.NewFaultFS(wal.NewOSFS(dir))
	ffs.Before(func(op wal.Op, _ string) error {
		if op == wal.OpWrite {
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	})
	return ffs
}

// writeGate is a one-slot admission gate with a short wait: the bound
// on writes the insert overload tests flood.
var writeGate = AdmitOptions{MaxInFlight: 1, AdmissionWait: 2 * time.Millisecond, RetryAfterHint: 35 * time.Millisecond}

// floodInserts runs 16 writers of 4 four-document batches each through
// insert and returns the errors they met.
func floodInserts(insert func(batchID string, raw [][]byte) error, mkBatch func(n int) [][]byte) []error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 4; b++ {
				if err := insert(fmt.Sprintf("ov%d/%d", w, b), mkBatch(4)); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return errs
}

// TestWireInsertOverloadSheds: a shard daemon over a deliberately
// slow journal sheds excess write load at its admission gate with the
// structured transient overload error — RetryAfter crosses the wire
// intact.
func TestWireInsertOverloadSheds(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cluster, err := sharding.OpenCluster(sharding.Options{
		Shards: 3, ChunkMaxBytes: 16 << 10, Parallel: 1,
		Dir: dir, FS: slowJournalFS(dir), Sync: wal.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.ShardCollection(sharding.ShardKey{Fields: []string{"hilbertIndex", "date"}}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(cluster, nil, ServerOptions{Admit: writeGate})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := Connect([]string{addr}, Options{Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	gen := bson.NewObjectIDGen(99)
	var mu sync.Mutex
	mkBatch := func(n int) [][]byte {
		mu.Lock()
		defer mu.Unlock()
		docs := make([]*bson.Document, n)
		for i := range docs {
			at := testStart.Add(time.Duration(i) * time.Minute)
			docs[i] = bson.FromD(bson.D{
				{Key: "_id", Value: gen.New(at)},
				{Key: "date", Value: at},
				{Key: "hilbertIndex", Value: int64(i * 37 % 4096)},
			})
		}
		return bson.MarshalAll(docs)
	}

	errs := floodInserts(func(batchID string, raw [][]byte) error {
		_, _, err := rc.InsertBatchRaw(context.Background(), batchID, raw)
		return err
	}, mkBatch)
	for _, err := range errs {
		var se *sharding.ShardError
		if !errors.As(err, &se) {
			t.Fatalf("unstructured error: %v", err)
		}
		if !se.Transient || se.RetryAfter != 35*time.Millisecond {
			t.Fatalf("shed lost structure over the wire: %+v", se)
		}
	}
	if len(errs) == 0 {
		t.Fatal("flood produced no sheds")
	}
}

// TestRouterInsertOverloadSheds: the router twin, through Client.Insert
// — the path continuous ingest takes. A flood against a one-slot gate
// over a slow journal sheds with a *ServerError carrying the overload
// code and the gate's retry-after hint.
func TestRouterInsertOverloadSheds(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	router, err := core.Open(core.Config{
		Approach: core.Hil, Shards: 3, ChunkMaxBytes: 16 << 10, DataExtent: testExtent,
		Dir: dir, FS: slowJournalFS(dir), Sync: wal.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rs := NewRouterServer(router, writeGate)
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	cl, err := DialRouter(addr, Options{Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	raws := bson.MarshalAll(mustDocs(t, router, ingestRecords(75, 16*4*4)))
	var next atomic.Int64
	mkBatch := func(n int) [][]byte {
		i := int(next.Add(int64(n))) - n
		return raws[i : i+n]
	}
	errs := floodInserts(func(batchID string, raw [][]byte) error {
		_, err := cl.Insert(batchID, raw)
		return err
	}, mkBatch)
	for _, err := range errs {
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("unstructured error: %v", err)
		}
		if se.Code != wire.ErrCodeOverload || !se.Transient || se.RetryAfter != 35*time.Millisecond {
			t.Fatalf("shed lost structure over the wire: %+v", se)
		}
	}
	if len(errs) == 0 {
		t.Fatal("flood produced no sheds")
	}
}

// TestRouterForwardsShardOverload: a shard daemon's gate shed of a
// router's broadcast reaches the router's client as an overload with
// the shard's retry-after hint — not as a generic error that happens to
// carry one — so the client backs off by the hint. The router's own
// gate is the default one; only the daemon behind it sheds.
func TestRouterForwardsShardOverload(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := core.Config{Approach: core.Hil, Shards: 3, ChunkMaxBytes: 16 << 10, DataExtent: testExtent, Sync: wal.SyncNever}
	router, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	cfg.Dir, cfg.FS = dir, slowJournalFS(dir)
	backend, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	addrs := startServers(t, backend, 1, ServerOptions{Admit: writeGate})
	router.Cluster().SetConn(connectRemote(t, router, addrs, Options{Mutable: true}))
	defer router.Cluster().SetConn(nil)

	rs := NewRouterServer(router, AdmitOptions{})
	addr, err := rs.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	cl, err := DialRouter(addr, Options{Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	raws := bson.MarshalAll(mustDocs(t, router, ingestRecords(76, 16*4*4)))
	var next atomic.Int64
	mkBatch := func(n int) [][]byte {
		i := int(next.Add(int64(n))) - n
		return raws[i : i+n]
	}
	errs := floodInserts(func(batchID string, raw [][]byte) error {
		_, err := cl.Insert(batchID, raw)
		return err
	}, mkBatch)
	for _, err := range errs {
		var se *ServerError
		if !IsOverload(err) || !errors.As(err, &se) || se.RetryAfter != writeGate.RetryAfterHint {
			t.Fatalf("a shard's shed reached the router's client as %v", err)
		}
	}
	if len(errs) == 0 {
		t.Fatal("flood produced no sheds")
	}
}

// TestWireInsertRefusesOversizedBatch: a batch that fits in a wire
// frame but whose journal record would not fit in a journal frame is
// refused, permanently, before it is journaled. Had it been applied
// and acknowledged, recovery would read its record as a torn tail and
// cut the journal there, dropping it and every acknowledged write
// after it; the reopen proves nothing of the sort happened.
func TestWireInsertRefusesOversizedBatch(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	opts := sharding.Options{Shards: 2, ChunkMaxBytes: 16 << 10, Parallel: 1, Dir: dir}
	cluster, err := sharding.OpenCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.ShardCollection(sharding.ShardKey{Fields: []string{"hilbertIndex", "date"}}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(cluster, nil, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Connect([]string{addr}, Options{Mutable: true})
	if err != nil {
		t.Fatal(err)
	}

	gen := bson.NewObjectIDGen(7)
	next := 0
	mkBatch := func(n, pad int) [][]byte {
		docs := make([]*bson.Document, n)
		for i := range docs {
			at := testStart.Add(time.Duration(next) * time.Minute)
			next++
			docs[i] = bson.FromD(bson.D{
				{Key: "_id", Value: gen.New(at)},
				{Key: "date", Value: at},
				{Key: "hilbertIndex", Value: int64(next * 37 % 4096)},
				{Key: "pad", Value: strings.Repeat("x", pad)},
			})
		}
		return bson.MarshalAll(docs)
	}
	insert := func(batchID string, raw [][]byte) error {
		applied, _, err := rc.InsertBatchRaw(context.Background(), batchID, raw)
		if err == nil && applied != len(raw) {
			t.Fatalf("batch %s: applied %d of %d", batchID, applied, len(raw))
		}
		return err
	}

	if err := insert("before", mkBatch(4, 10)); err != nil {
		t.Fatal(err)
	}
	big := mkBatch(17, 1<<20) // 17 MiB: under wire.MaxFrameBody, over wal.MaxFrameBody
	err = insert("big", big)
	var se *sharding.ShardError
	if !errors.As(err, &se) || se.Transient || !strings.Contains(se.Error(), "too large for one journal record") {
		t.Fatalf("oversized batch: %v, want a permanent refusal", err)
	}
	if err := insert("after", mkBatch(4, 10)); err != nil {
		t.Fatal(err)
	}
	wantDocs, wantSum := cluster.ContentFingerprint()
	if wantDocs != 8 {
		t.Fatalf("cluster holds %d docs, want the 8 acknowledged", wantDocs)
	}
	rc.Close()
	srv.Close()
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := sharding.OpenCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if docs, sum := reopened.ContentFingerprint(); docs != wantDocs || sum != wantSum {
		t.Fatalf("reopen holds (%d, %016x), want (%d, %016x)", docs, sum, wantDocs, wantSum)
	}
}

// TestWireInsertCancelConverges: a context cancelled mid-flight
// leaves no goroutines behind and no double application — the retry
// under the same batch ID converges on exactly-once.
func TestWireInsertCancelConverges(t *testing.T) {
	leakcheck.Check(t)
	local := openStore(t, core.Hil, 3, 300)
	backend := openStore(t, core.Hil, 3, 300)
	addrs := startServers(t, backend, 2, ServerOptions{})
	rc := connectRemote(t, local, addrs, Options{Mutable: true})

	docs := mustDocs(t, local, ingestRecords(79, 32))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := rc.InsertBatchRaw(ctx, "cx-b1", bson.MarshalAll(docs)); err == nil {
		t.Log("batch won the race against cancellation")
	}
	// Retry until the batch is definitely in: daemons that applied it
	// before the cancel answer dup, the rest apply it now.
	var applied int
	var dup bool
	var err error
	for i := 0; i < 50; i++ {
		applied, dup, err = rc.InsertBatchRaw(context.Background(), "cx-b1", bson.MarshalAll(docs))
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("retry never converged: %v", err)
	}
	if !dup && applied != len(docs) {
		t.Fatalf("converged retry: applied=%d dup=%v", applied, dup)
	}
	if d, _ := backend.Fingerprint(); d != 300+len(docs) {
		t.Fatalf("backend holds %d docs, want %d (exactly-once)", d, 300+len(docs))
	}
}

// TestInsertHandlerOwnsItsBytes drives one insert frame through the
// server's handler and then scribbles over the frame buffer, the way a
// transport that reuses its read buffer would: what the stores hold must
// not move, because the handler handed them copies. The batch also
// carries a document from a more liberal encoder (a bool byte of 2, an
// array keyed "7"); what is stored for it is Marshal's form.
func TestInsertHandlerOwnsItsBytes(t *testing.T) {
	leakcheck.Check(t)
	backend := openStore(t, core.Hil, 3, 200)
	srv, err := NewShardServer(backend.Cluster(), nil, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	docs := bson.MarshalAll(mustDocs(t, backend, ingestRecords(73, 8)))
	at := testExtent.Center()
	liberal := bson.Marshal(bson.FromD(bson.D{
		{Key: "_id", Value: int64(7001)},
		{Key: "location", Value: geo.GeoJSONPoint(at)},
		{Key: "hilbertIndex", Value: int64(backend.Grid().Encode(at))},
		{Key: "date", Value: testStart},
		{Key: "flag", Value: true},
		{Key: "arr", Value: bson.A{nil}},
	}))
	canonical := bytes.Clone(liberal)
	liberal[bytes.Index(liberal, []byte("flag\x00"))+len("flag\x00")] = 2
	liberal[bytes.Index(liberal, []byte("\x0A0\x00"))+1] = '7'
	if isCanonical, err := bson.Validate(liberal); err != nil || isCanonical {
		t.Fatalf("the liberal encoding validates as %v, %v", isCanonical, err)
	}
	body := wire.Insert{BatchID: "own-b1", Docs: append(docs, liberal)}.Encode(nil)

	var out bytes.Buffer
	h := &connHandler{bw: bufio.NewWriter(&out)}
	if !srv.handleOp(h, wire.OpInsert, body) {
		t.Fatal("insert handler poisoned the connection")
	}
	op, replyBody, err := wire.ReadFrame(bufio.NewReader(&out))
	if err != nil || op != wire.OpInsertReply {
		t.Fatalf("insert answered op %d, err %v: %s", op, err, replyBody)
	}
	if reply, err := wire.DecodeInsertReply(replyBody); err != nil || int(reply.Applied) != len(docs)+1 {
		t.Fatalf("insert reply %+v, err %v", reply, err)
	}

	wantDocs, wantSum := backend.Fingerprint()
	for i := range body {
		body[i] ^= 0xA5
	}
	if gotDocs, gotSum := backend.Fingerprint(); gotDocs != wantDocs || gotSum != wantSum {
		t.Fatalf("scribbling over the frame changed the store: %d/%016x, was %d/%016x", gotDocs, gotSum, wantDocs, wantSum)
	}
	stored := 0
	for _, sh := range backend.Cluster().Shards() {
		sh.Coll.Store().Walk(func(_ storage.RecordID, raw []byte) bool {
			if isCanonical, err := bson.Validate(raw); err != nil || !isCanonical {
				t.Errorf("stored document validates as %v, %v", isCanonical, err)
			}
			if bytes.Equal(raw, canonical) {
				stored++
			}
			return true
		})
	}
	if stored != 1 {
		t.Fatalf("the liberal document is stored in Marshal's form %d times, want once", stored)
	}
}
