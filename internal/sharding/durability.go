package sharding

// Durability: the cluster's write-ahead journal and checkpoint
// snapshots, substituting for what WiredTiger provides the paper's
// MongoDB deployment (journaled writes, periodic checkpoints, crash
// recovery).
//
// Design. The journal records *logical cluster operations* — insert
// batch, per-document delete, shardCollection, createIndex, setZones,
// balance — not physical page changes. Recovery replays them through
// the exact code paths that produced them, and
// because routing, chunk splitting and balancing are deterministic
// functions of the operation order, the recovered cluster's chunk map,
// per-chunk statistics, record ids and index contents are
// byte-identical to the pre-crash state. Record bodies for inserts are
// the raw BSON bytes the storage layer stored, and replay stores those
// same bytes again — validated (bson.Validate), never decoded.
//
// Layout: a store directory holds one journal file. Every record is
// appended by the cluster operation that decided it, under the cluster
// write lock, which also serialises LSN assignment; records are
// consecutive in file order, so a torn or corrupt frame rolls the whole
// cluster back to the last complete operation before it.
//
// Durability boundary: the journal fsync (per Options.Sync) is the
// commit point, taken once at the end of each write operation. What an
// operation causes deterministically — chunk splits, the auto-balance
// cadence, balancer and zone migrations, the rollback of a document an
// index rejected — is not journaled: replay re-derives it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"

	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Journal record opcodes.
const (
	opInit            uint8 = 1 // structural options of a fresh cluster
	opShardCollection uint8 = 2 // shard key + strategy
	opCreateIndex     uint8 = 3 // secondary index definition
	opSetZones        uint8 = 4 // zone ranges
	opBalance         uint8 = 5 // explicit balancer run
	opInsert          uint8 = 6 // reserved: the per-shard journal layout's single insert; never written, refused on replay
	opDelete          uint8 = 7 // shard + record id
	opInsertBatch     uint8 = 8 // batch id + raw documents (see ingest.go)
	opDropBelow       uint8 = 9 // reserved: TTL retention's drop below a shard-key prefix; never written, refused on replay
)

// journalName is the one journal file of a store directory.
const journalName = "journal.wal"

// errOldLayout refuses a store directory written before the journal was
// one file: DDL in meta.wal, inserts and deletes in one shardNNN.wal
// per shard, merged by LSN at recovery.
var errOldLayout = errors.New("store directory uses the per-shard journal layout (meta.wal + shardNNN.wal, single inserts as op 6), which this version does not read; load the data into a new directory")

// errRetentionRecord refuses a journal holding an op-9 record: a drop
// below a shard-key prefix, written only by the TTL retention loop.
var errRetentionRecord = errors.New("journal holds a retention drop (op 9): this store used TTL retention, which was removed after f528198; load the data into a new directory")

// durability is the cluster's journaling state; nil on an in-memory
// cluster and while recovery replays.
type durability struct {
	fs  wal.FS
	j   *wal.Journal
	lsn uint64 // last assigned LSN
}

// journal appends the record of the operation the caller — holding the
// cluster write lock — is applying; it reaches the file at the
// operation's commit. A no-op without durability.
func (c *Cluster) journal(op uint8, body []byte) {
	if c.dur == nil {
		return
	}
	c.dur.lsn++
	c.dur.j.Append(wal.Record{LSN: c.dur.lsn, Op: op, Body: body})
}

// commitDur writes the operation's buffered records through and applies
// the sync policy — the commit point at the end of each cluster write
// operation; a no-op on in-memory clusters.
func (c *Cluster) commitDur() error {
	if c.dur == nil {
		return nil
	}
	return c.dur.j.Commit()
}

// journalCommit appends one DDL/balance record and commits. Callers
// hold the cluster write lock.
func (c *Cluster) journalCommit(op uint8, body []byte) error {
	c.journal(op, body)
	return c.commitDur()
}

// finishWriteLocked ends a data operation: commit the journal. The
// operation's own error, if any, wins.
func (c *Cluster) finishWriteLocked(opErr error) error {
	if err := c.commitDur(); opErr == nil {
		opErr = err
	}
	return opErr
}

// LSN reports the last journal LSN the cluster assigned (0 on an
// in-memory cluster): the recovery point a reopened cluster resumed
// from, and the journal position write replies carry so a client can
// correlate an ack with what made it durable.
func (c *Cluster) LSN() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.dur == nil {
		return 0
	}
	return c.dur.lsn
}

// OpenCluster opens (or creates) a durable cluster rooted at
// opts.Dir: it recovers the newest snapshot, replays the consistent
// journal tail — truncating at the first torn or corrupt frame — and
// leaves the journal open for further writes. An empty directory
// yields a fresh, journaled cluster; a directory in the per-shard
// journal layout is refused before anything in it is changed.
// Structural options (shard count, chunk threshold, collection name,
// balance cadence) are recorded in the store directory and take
// precedence over the caller's on reopen; every other option comes from
// the caller.
func OpenCluster(opts Options) (*Cluster, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("sharding: OpenCluster requires Options.Dir")
	}
	opts = opts.withDefaults()
	fs := opts.FS
	if fs == nil {
		fs = wal.NewOSFS(opts.Dir)
	}
	if err := fs.MkdirAll("."); err != nil {
		return nil, fmt.Errorf("sharding: creating %s: %w", opts.Dir, err)
	}
	names, err := fs.List(".")
	if err != nil {
		return nil, fmt.Errorf("sharding: listing %s: %w", opts.Dir, err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".wal") && name != journalName {
			return nil, fmt.Errorf("sharding: %s holds %s: %w", opts.Dir, name, errOldLayout)
		}
	}
	res, err := wal.Recover(fs, journalName)
	if err != nil {
		return nil, fmt.Errorf("sharding: recovering %s: %w", opts.Dir, err)
	}

	var c *Cluster
	fresh := false
	switch {
	case res.HasSnapshot:
		c, err = clusterFromSnapshot(res.SnapshotPayload, opts)
		if err != nil {
			return nil, err
		}
	case len(res.Records) > 0:
		// Journal-only directory: the first record is the opInit
		// frame a fresh durable cluster writes before anything else.
		first := res.Records[0]
		if first.Op != opInit {
			return nil, fmt.Errorf("sharding: journal in %s does not start with init record (op %d)",
				opts.Dir, first.Op)
		}
		recorded, err := decodeInitBody(&decoder{buf: first.Body}, opts)
		if err != nil {
			return nil, err
		}
		c = NewCluster(recorded)
	default:
		fresh = true
		c = NewCluster(opts)
	}

	// Replay with no durability attached: the ops mutate the cluster
	// without re-journaling themselves. Nothing on disk has changed yet;
	// only a journal whose every record replayed has its torn tail cut.
	if err := c.replay(res.Records); err != nil {
		return nil, err
	}
	if err := res.TruncateTail(fs); err != nil {
		return nil, err
	}
	j, err := wal.OpenJournal(fs, journalName, wal.JournalOptions{Sync: opts.Sync})
	if err != nil {
		return nil, err
	}
	c.dur = &durability{fs: fs, j: j, lsn: res.NextLSN - 1}
	// Snapshot restore loads documents without going through the insert
	// path, so the per-chunk cells are rebuilt from the recovered
	// data in one pass.
	if opts.SummaryShift > 0 {
		c.mu.Lock()
		c.rebuildSummariesLocked()
		c.mu.Unlock()
	}
	if fresh {
		c.mu.Lock()
		err := c.journalCommit(opInit, encodeInitBody(c.opts))
		if err == nil {
			err = c.dur.j.Sync() // make the init record durable immediately
		}
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Durable reports whether the cluster journals to a directory.
func (c *Cluster) Durable() bool { return c.dur != nil }

// Sync forces every buffered journal frame to stable storage,
// regardless of the sync policy.
func (c *Cluster) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dur == nil {
		return nil
	}
	return c.dur.j.Sync()
}

// Close marks the cluster closed and syncs and closes the journal. The
// cluster remains usable for reads; inserts, loads, deletes, balancing
// and DDL are refused with ErrClosed before anything of them is applied.
// A second Close returns nil.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.dur == nil {
		return nil
	}
	return c.dur.j.Close()
}

// Checkpoint writes a snapshot of the full cluster state — store
// contents, chunk map, zones, shard key and index definitions — and
// resets the journal, bounding both recovery time and journal size.
// The write is atomic (temp file + rename); a crash at any point
// leaves either the old snapshot + full journal or the new snapshot +
// a journal whose stale records recovery skips by LSN.
func (c *Cluster) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dur == nil {
		return fmt.Errorf("sharding: Checkpoint on an in-memory cluster")
	}
	if err := c.dur.j.Sync(); err != nil {
		return err
	}
	payload := c.encodeSnapshotLocked()
	if err := wal.WriteSnapshot(c.dur.fs, c.dur.lsn, payload); err != nil {
		return err
	}
	// The snapshot covers every journaled record: empty the journal.
	if err := c.dur.j.Reset(); err != nil {
		return err
	}
	return wal.RemoveSnapshotsBelow(c.dur.fs, c.dur.lsn)
}

// replay applies recovered journal records through the normal cluster
// operations. It runs before durability is attached, so nothing
// re-journals. A per-document failure the original execution also
// produced (a batch document an index rejected) is tolerated;
// structural decode failures are not.
func (c *Cluster) replay(recs []wal.Record) error {
	for _, rec := range recs {
		switch rec.Op {
		case opInit:
			// Structural options were consumed when the cluster was
			// constructed.
		case opShardCollection:
			key, err := decodeShardKey(rec.Body)
			if err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
			if err := c.ShardCollection(key); err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
		case opCreateIndex:
			def, err := decodeIndexDef(rec.Body)
			if err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
			if err := c.CreateIndex(def); err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
		case opSetZones:
			zones, err := decodeZones(rec.Body)
			if err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
			if err := c.SetZones(zones); err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
		case opBalance:
			if err := c.Balance(); err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
		case opInsert:
			return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, errOldLayout)
		case opDelete:
			shard, id, err := decodeDelete(rec.Body)
			if err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
			c.mu.Lock()
			err = c.deleteRecordLocked(shard, id)
			c.mu.Unlock()
			if err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
		case opInsertBatch:
			batchID, docs, err := decodeInsertBatch(rec.Body)
			if err != nil {
				return fmt.Errorf("sharding: replay lsn %d: corrupt batch: %w", rec.LSN, err)
			}
			// Per-document failures replay identically to the original
			// execution; the batch's dedup mark is re-established.
			c.commitIngest([]*ingestReq{{batchID: batchID, docs: docs}})
		case opDropBelow:
			return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, errRetentionRecord)
		default:
			return fmt.Errorf("sharding: replay lsn %d: unknown op %d", rec.LSN, rec.Op)
		}
	}
	return nil
}

// ContentFingerprint summarises the documents stored across every
// shard: the live document count and an order-independent checksum of
// their raw bytes. Two clusters holding the same documents fingerprint
// identically regardless of shard placement, which makes the value a
// dataset identity for benchmark reports, the handshake and a cheap
// recovery check. The pair is maintained by the bodies that store and
// drop documents, so reading it is O(1).
func (c *Cluster) ContentFingerprint() (docs int, checksum uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.fpDocs, c.fpSum
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// docChecksum is one document's term of the fingerprint's sum: its
// CRC32C mixed through SplitMix64, so the commutative sum still reacts
// to multiplicity and value.
func docChecksum(raw []byte) uint64 {
	x := uint64(crc32.Checksum(raw, castagnoli)) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// --- snapshot codec -------------------------------------------------

// snapshotVersion guards the payload layout. Version 2 appends the
// ingest dedup window (batch IDs, oldest first) after the shard
// payloads; version 1 snapshots are still readable (empty window).
const snapshotVersion = 2

// encodeSnapshotLocked serialises the complete cluster state. Callers
// hold the write lock (or have exclusive access).
func (c *Cluster) encodeSnapshotLocked() []byte {
	var b []byte
	b = binary.AppendUvarint(b, snapshotVersion)
	b = binary.AppendUvarint(b, c.dur.lsn)
	b = append(b, encodeInitBody(c.opts)...)

	if c.sharded {
		b = append(b, 1)
		b = appendBytes(b, encodeShardKey(c.key))
	} else {
		b = append(b, 0)
	}

	b = binary.AppendUvarint(b, uint64(len(c.chunks)))
	for _, ch := range c.chunks {
		b = appendBytes(b, ch.Min)
		b = appendBytes(b, ch.Max)
		b = binary.AppendUvarint(b, uint64(ch.Shard))
		b = binary.AppendVarint(b, int64(ch.Docs))
		b = binary.AppendVarint(b, ch.Bytes)
	}

	b = appendBytes(b, encodeZones(c.zones))

	b = binary.AppendVarint(b, int64(c.sinceBalance))
	b = binary.AppendVarint(b, int64(c.splits))
	b = binary.AppendVarint(b, int64(c.migrations))
	b = binary.AppendVarint(b, int64(c.jumbo))

	b = binary.AppendUvarint(b, uint64(len(c.shards)))
	for _, s := range c.shards {
		// Secondary index definitions in creation order (the _id index
		// is implicit).
		var defs []index.Definition
		for _, ix := range s.Coll.Indexes() {
			if ix.Def().Name != "_id_" {
				defs = append(defs, ix.Def())
			}
		}
		b = binary.AppendUvarint(b, uint64(len(defs)))
		for _, def := range defs {
			b = appendBytes(b, encodeIndexDef(def))
		}

		store := s.Coll.Store()
		b = binary.AppendUvarint(b, uint64(store.NextID()))
		b = binary.AppendUvarint(b, uint64(store.Len()))
		store.Walk(func(id storage.RecordID, raw []byte) bool {
			b = binary.AppendUvarint(b, uint64(id))
			b = appendBytes(b, raw)
			return true
		})
	}

	// v2: the dedup window, so idempotent retries survive a
	// checkpoint's journal reset.
	ids := c.dedup.entries()
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = appendString(b, id)
	}
	return b
}

// clusterFromSnapshot rebuilds a cluster from a snapshot payload.
func clusterFromSnapshot(payload []byte, caller Options) (*Cluster, error) {
	d := &decoder{buf: payload}
	version := d.uvarint()
	if version != 1 && version != snapshotVersion {
		return nil, fmt.Errorf("sharding: snapshot version %d not supported", version)
	}
	d.uvarint() // snapshot LSN (recovery tracks it via the file name)
	recorded, err := decodeInitBody(d, caller)
	if err != nil {
		return nil, err
	}
	c := NewCluster(recorded)

	if d.byte() == 1 {
		key, err := decodeShardKey(d.bytes())
		if err != nil {
			return nil, err
		}
		c.key = key
		c.sharded = true
	}

	nchunks := d.count(5) // two bounds, shard, docs, bytes
	c.chunks = make([]*Chunk, 0, nchunks)
	for i := 0; i < nchunks; i++ {
		ch := &Chunk{
			Min:   d.bytesCopy(),
			Max:   d.bytesCopy(),
			Shard: int(d.uvarint()),
			Docs:  int(d.varint()),
			Bytes: d.varint(),
		}
		c.chunks = append(c.chunks, ch)
	}

	zones, err := decodeZones(d.bytes())
	if err != nil {
		return nil, err
	}
	c.zones = zones

	c.sinceBalance = int(d.varint())
	c.splits = int(d.varint())
	c.migrations = int(d.varint())
	c.jumbo = int(d.varint())

	nshards := int(d.uvarint())
	if d.err != nil {
		return nil, fmt.Errorf("sharding: corrupt snapshot: %w", d.err)
	}
	if nshards != len(c.shards) {
		return nil, fmt.Errorf("sharding: snapshot has %d shards, options say %d",
			nshards, len(c.shards))
	}
	for _, s := range c.shards {
		ndefs := d.count(1)
		defs := make([]index.Definition, 0, ndefs)
		for i := 0; i < ndefs; i++ {
			def, err := decodeIndexDef(d.bytes())
			if err != nil {
				return nil, err
			}
			defs = append(defs, def)
		}

		nextID := storage.RecordID(d.uvarint())
		nrecs := d.count(2) // id, length-prefixed bytes
		if d.err != nil {
			return nil, fmt.Errorf("sharding: corrupt snapshot: %w", d.err)
		}
		// Records first (only the _id index is live), then the
		// secondary indexes backfill from the restored store.
		for i := 0; i < nrecs; i++ {
			id := storage.RecordID(d.uvarint())
			raw := d.bytesCopy()
			if d.err != nil {
				return nil, fmt.Errorf("sharding: corrupt snapshot: %w", d.err)
			}
			if err := s.Coll.RestoreRaw(id, raw); err != nil {
				return nil, err
			}
			c.fpDocs++
			c.fpSum += docChecksum(raw)
		}
		for _, def := range defs {
			if _, err := s.Coll.CreateIndex(def); err != nil {
				return nil, err
			}
		}
		s.Coll.Store().SetNextID(nextID)
	}
	if version >= 2 {
		nids := d.count(1)
		for i := 0; i < nids; i++ {
			c.dedup.add(d.string())
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("sharding: corrupt snapshot: %w", d.err)
	}
	c.refindJumbo(c)
	return c, nil
}

// --- op body codecs -------------------------------------------------

// encodeInitBody frames the structural options: the opInit record's
// body and a section of the snapshot payload.
func encodeInitBody(opts Options) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(opts.Shards))
	b = binary.AppendVarint(b, opts.ChunkMaxBytes)
	b = binary.AppendVarint(b, int64(opts.AutoBalanceEvery))
	b = appendString(b, opts.CollectionName)
	return b
}

// decodeInitBody reads the structural options an init record (or a
// snapshot header) carries over opts, the caller's: the recorded fields
// win, every other one stays the caller's.
func decodeInitBody(d *decoder, opts Options) (Options, error) {
	opts.Shards = int(d.uvarint())
	opts.ChunkMaxBytes = d.varint()
	opts.AutoBalanceEvery = int(d.varint())
	opts.CollectionName = d.string()
	if d.err != nil {
		return opts, fmt.Errorf("sharding: corrupt init record: %w", d.err)
	}
	return opts, nil
}

func encodeShardKey(key ShardKey) []byte {
	var b []byte
	b = append(b, byte(key.Strategy))
	b = binary.AppendUvarint(b, uint64(len(key.Fields)))
	for _, f := range key.Fields {
		b = appendString(b, f)
	}
	return b
}

func decodeShardKey(body []byte) (ShardKey, error) {
	d := &decoder{buf: body}
	var key ShardKey
	key.Strategy = Strategy(d.byte())
	n := d.count(1)
	for i := 0; i < n; i++ {
		key.Fields = append(key.Fields, d.string())
	}
	if d.err != nil {
		return key, fmt.Errorf("sharding: corrupt shard-key record: %w", d.err)
	}
	return key, nil
}

func encodeIndexDef(def index.Definition) []byte {
	var b []byte
	b = appendString(b, def.Name)
	b = binary.AppendUvarint(b, uint64(def.GeoBits))
	b = binary.AppendUvarint(b, uint64(len(def.Fields)))
	for _, f := range def.Fields {
		b = appendString(b, f.Name)
		b = append(b, byte(f.Kind))
	}
	return b
}

func decodeIndexDef(body []byte) (index.Definition, error) {
	d := &decoder{buf: body}
	var def index.Definition
	def.Name = d.string()
	def.GeoBits = uint(d.uvarint())
	n := d.count(2) // name, kind
	for i := 0; i < n; i++ {
		name := d.string()
		kind := index.FieldKind(d.byte())
		def.Fields = append(def.Fields, index.Field{Name: name, Kind: kind})
	}
	if d.err != nil {
		return def, fmt.Errorf("sharding: corrupt index record: %w", d.err)
	}
	return def, nil
}

func encodeZones(zones []Zone) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(zones)))
	for _, z := range zones {
		b = appendString(b, z.Name)
		b = appendBytes(b, z.Min)
		b = appendBytes(b, z.Max)
		b = binary.AppendUvarint(b, uint64(z.Shard))
	}
	return b
}

func decodeZones(body []byte) ([]Zone, error) {
	d := &decoder{buf: body}
	n := d.count(4) // name, two bounds, shard
	zones := make([]Zone, 0, n)
	for i := 0; i < n; i++ {
		zones = append(zones, Zone{
			Name:  d.string(),
			Min:   d.bytesCopy(),
			Max:   d.bytesCopy(),
			Shard: int(d.uvarint()),
		})
	}
	if d.err != nil {
		return nil, fmt.Errorf("sharding: corrupt zones record: %w", d.err)
	}
	return zones, nil
}

func encodeDelete(shard int, id storage.RecordID) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, uint64(shard)), uint64(id))
}

func decodeDelete(body []byte) (shard int, id storage.RecordID, err error) {
	d := &decoder{buf: body}
	shard = int(d.uvarint())
	id = storage.RecordID(d.uvarint())
	if d.err != nil {
		return 0, 0, fmt.Errorf("sharding: corrupt delete record: %w", d.err)
	}
	return shard, id, nil
}

// --- little encoding helpers ---------------------------------------

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder reads the helpers back, accumulating the first error.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("short buffer")
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if d.err != nil || n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint() // zigzag, as binary.AppendVarint writes it
	return int64(u>>1) ^ -int64(u&1)
}

// count reads an element count and validates it against the bytes that
// remain (each element encodes to at least minSize bytes), so a corrupt
// count can neither size an allocation nor bound a loop.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)/minSize) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.buf)) < n {
		d.fail()
		return nil
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) bytesCopy() []byte {
	return append([]byte(nil), d.bytes()...)
}

func (d *decoder) string() string { return string(d.bytes()) }
