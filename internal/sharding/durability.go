package sharding

// Durability: the cluster's write-ahead journal and checkpoint
// snapshots, substituting for what WiredTiger provides the paper's
// MongoDB deployment (journaled writes, periodic checkpoints, crash
// recovery).
//
// Design. The journal records *logical cluster operations* — insert,
// per-document delete, shardCollection, createIndex, setZones,
// balance — not physical page changes. Recovery replays them through
// the exact code paths that produced them, and because routing, chunk
// splitting and balancing are deterministic functions of the
// operation order, the recovered cluster's chunk map, per-chunk
// statistics, record ids and index contents are byte-identical to the
// pre-crash state. Record bodies for inserts are the raw BSON bytes
// the storage layer stored, and replay stores those same bytes again —
// validated (bson.Validate), never decoded.
//
// Layout: one journal file per shard for data ops (insert/delete,
// captured by storage.Hook so the journaled bytes are exactly the
// stored bytes) plus meta.wal for DDL and balance ops. A global LSN
// orders records across files; wal.Recover merges them and keeps the
// longest consecutive prefix, so a torn tail in any one file cleanly
// rolls the whole cluster back to the last consistent operation.
//
// Durability boundary: the journal fsync (per Options.Sync) is the
// commit point. Balancer chunk migrations are NOT journaled — they
// are re-derived during replay — so the hook suppresses itself while
// a migration moves documents between shards.

import (
	"bytes"
	"fmt"
	"hash/crc32"

	"repro/internal/bson"
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
	opInsert          uint8 = 6 // raw BSON document (body = stored bytes)
	opDelete          uint8 = 7 // shard + record id
	opInsertBatch     uint8 = 8 // idempotent batch: id + raw documents (see ingest.go)
	opDropBelow       uint8 = 9 // retention drop below a shard-key prefix (see retention.go)
)

// metaJournal is the journal file for DDL and balance records.
const metaJournal = "meta.wal"

func shardJournalName(shard int) string { return fmt.Sprintf("shard%03d.wal", shard) }

// durability is the cluster's journaling state; nil on an in-memory
// cluster.
type durability struct {
	fs       wal.FS
	meta     *wal.Journal
	shardJ   []*wal.Journal
	lsn      uint64 // last assigned LSN
	suppress int    // >0 while mutations must not be journaled (migrations)
}

func (d *durability) nextLSN() uint64 {
	d.lsn++
	return d.lsn
}

// commit flushes every journal's buffered frames and applies the sync
// policy — the group-commit point at the end of each cluster write
// operation.
func (d *durability) commit() error {
	if err := d.meta.Commit(); err != nil {
		return err
	}
	for _, j := range d.shardJ {
		if err := j.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// syncAll forces every journal to stable storage (checkpoint and
// close paths).
func (d *durability) syncAll() error {
	if err := d.meta.Sync(); err != nil {
		return err
	}
	for _, j := range d.shardJ {
		if err := j.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// shardHook is the storage.Hook of one shard's record store: it
// frames the exact stored/deleted bytes into that shard's journal and
// fans the same logical op into the shard's replication stream. It
// runs under the cluster write lock (all cluster mutations hold it),
// which also serialises LSN assignment.
//
// The two sinks differ on migrations: the journal suppresses them
// (replay re-derives migrations from the balance records), but the
// stream has no re-derivation — a follower only stays identical to
// its primary by seeing every op — so replication always streams.
type shardHook struct {
	c     *Cluster
	shard int
}

// Inserted implements storage.Hook.
func (h *shardHook) Inserted(id storage.RecordID, raw []byte) {
	if g := h.c.replGroupLocked(h.shard); g != nil {
		g.StreamInsert(id, raw)
	}
	d := h.c.dur
	if d == nil || d.suppress > 0 {
		return
	}
	d.shardJ[h.shard].Append(wal.Record{LSN: d.nextLSN(), Op: opInsert, Body: raw})
}

// Deleted implements storage.Hook.
func (h *shardHook) Deleted(id storage.RecordID, raw []byte) {
	if g := h.c.replGroupLocked(h.shard); g != nil {
		g.StreamDelete(id)
	}
	d := h.c.dur
	if d == nil || d.suppress > 0 {
		return
	}
	var body []byte
	body = appendUvarint(body, uint64(h.shard))
	body = appendUvarint(body, uint64(id))
	d.shardJ[h.shard].Append(wal.Record{LSN: d.nextLSN(), Op: opDelete, Body: body})
}

// journalMeta appends one DDL/balance record and commits. Callers
// hold the cluster write lock.
func (c *Cluster) journalMeta(op uint8, body []byte) error {
	if c.dur == nil {
		return nil
	}
	c.dur.meta.Append(wal.Record{LSN: c.dur.nextLSN(), Op: op, Body: body})
	return c.dur.commit()
}

// LastLSN reports the last journal LSN the cluster assigned (0 on an
// in-memory cluster). Write replies carry it so clients can correlate
// an ack with the journal position that made it durable.
func (c *Cluster) LastLSN() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.dur == nil {
		return 0
	}
	return c.dur.lsn
}

// commitDur flushes journals after a data operation; a no-op on
// in-memory clusters.
func (c *Cluster) commitDur() error {
	if c.dur == nil {
		return nil
	}
	return c.dur.commit()
}

// OpenCluster opens (or creates) a durable cluster rooted at
// opts.Dir: it recovers the newest snapshot, replays the consistent
// journal tail — truncating at the first torn or corrupt frame — and
// leaves the journal open for further writes. An empty directory
// yields a fresh, journaled cluster. Structural options (shard count,
// chunk threshold, collection name, balance cadence) are recorded in
// the store directory and take precedence over the caller's on
// reopen; runtime options (Parallel, QueryConfig) always come from
// the caller.
func OpenCluster(opts Options) (*Cluster, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("sharding: OpenCluster requires Options.Dir")
	}
	opts = opts.withDefaults()
	// Followers are re-seeded from the recovered primaries at the end
	// of the open — creating them earlier would miss the snapshot
	// restore, which bypasses the storage hooks.
	replicas := opts.Replicas
	opts.Replicas = 0
	fs := opts.FS
	if fs == nil {
		fs = wal.NewOSFS(opts.Dir)
	}
	if err := fs.MkdirAll("."); err != nil {
		return nil, fmt.Errorf("sharding: creating %s: %w", opts.Dir, err)
	}
	res, err := wal.Recover(fs, true)
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
		structural, err := decodeInit(first.Body)
		if err != nil {
			return nil, err
		}
		c = NewCluster(mergeRuntime(structural, opts))
	default:
		fresh = true
		c = NewCluster(opts)
	}

	// Replay with no durability attached: the ops mutate the cluster
	// without re-journaling themselves.
	if err := c.replay(res.Records); err != nil {
		return nil, err
	}

	if err := c.attachDurability(fs, opts, res.NextLSN-1); err != nil {
		return nil, err
	}
	// Snapshot restore loads documents without going through the insert
	// path, so the per-chunk sketches are rebuilt from the recovered
	// data in one pass.
	if opts.SummaryShift > 0 {
		c.mu.Lock()
		c.rebuildSummariesLocked()
		c.mu.Unlock()
	}
	if fresh {
		c.mu.Lock()
		err := c.journalMeta(opInit, encodeInit(c.opts))
		if err == nil {
			err = c.dur.syncAll() // make the init record durable immediately
		}
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	if replicas > 0 {
		if err := c.SetReplicas(replicas); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// mergeRuntime overlays the caller's runtime-only options onto the
// recovered structural ones. Replication is runtime: followers are
// volatile clones re-seeded on every open, never recovered from disk.
func mergeRuntime(structural, caller Options) Options {
	structural.Parallel = caller.Parallel
	structural.QueryConfig = caller.QueryConfig
	structural.Dir = caller.Dir
	structural.FS = caller.FS
	structural.Sync = caller.Sync
	structural.SyncBatchBytes = caller.SyncBatchBytes
	structural.Replicas = caller.Replicas
	structural.WriteConcern = caller.WriteConcern
	structural.ReadPref = caller.ReadPref
	structural.AckTimeout = caller.AckTimeout
	structural.DedupWindow = caller.DedupWindow
	structural.SummaryShift = caller.SummaryShift
	structural.ResultCacheBytes = caller.ResultCacheBytes
	return structural
}

// attachDurability opens the journals for appending and installs the
// storage hooks. The journal files were already truncated to the
// recovered prefix by wal.Recover.
func (c *Cluster) attachDurability(fs wal.FS, opts Options, lastLSN uint64) error {
	jopts := wal.JournalOptions{Sync: opts.Sync, BatchBytes: opts.SyncBatchBytes}
	meta, err := wal.OpenJournal(fs, metaJournal, jopts)
	if err != nil {
		return err
	}
	d := &durability{fs: fs, meta: meta, lsn: lastLSN}
	for i := range c.shards {
		j, err := wal.OpenJournal(fs, shardJournalName(i), jopts)
		if err != nil {
			return err
		}
		d.shardJ = append(d.shardJ, j)
	}
	c.dur = d
	for i, s := range c.shards {
		s.Coll.Store().SetHook(&shardHook{c: c, shard: i})
	}
	return nil
}

// LSN returns the last journaled sequence number (0 on in-memory
// clusters). It identifies the recovery point a reopened cluster
// resumed from.
func (c *Cluster) LSN() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.dur == nil {
		return 0
	}
	return c.dur.lsn
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
	return c.dur.syncAll()
}

// Close stops the replica groups, then syncs and closes the
// journals. The cluster remains usable for reads; further writes on a
// closed durable cluster fail.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeReplicasLocked()
	if c.dur == nil {
		return nil
	}
	if err := c.dur.meta.Close(); err != nil {
		return err
	}
	for _, j := range c.dur.shardJ {
		if err := j.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint writes a snapshot of the full cluster state — store
// contents, chunk map, zones, shard key and index definitions — and
// resets the journals, bounding both recovery time and journal size.
// The write is atomic (temp file + rename); a crash at any point
// leaves either the old snapshot + full journal or the new snapshot +
// a journal whose stale records recovery skips by LSN.
func (c *Cluster) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dur == nil {
		return fmt.Errorf("sharding: Checkpoint on an in-memory cluster")
	}
	if err := c.dur.syncAll(); err != nil {
		return err
	}
	payload := c.encodeSnapshotLocked()
	if err := wal.WriteSnapshot(c.dur.fs, c.dur.lsn, payload); err != nil {
		return err
	}
	// The snapshot covers every journaled record: empty the journals.
	if err := c.dur.meta.Reset(); err != nil {
		return err
	}
	for _, j := range c.dur.shardJ {
		if err := j.Reset(); err != nil {
			return err
		}
	}
	return wal.RemoveSnapshotsBelow(c.dur.fs, c.dur.lsn)
}

// replay applies recovered journal records through the normal cluster
// operations. It runs before durability is attached, so nothing
// re-journals. Op-level errors that the original execution also
// produced (an insert that was rolled back, a delete of a rolled-back
// record) are tolerated; structural decode failures are not.
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
			c.Balance()
		case opInsert:
			if _, err := bson.Validate(rec.Body); err != nil {
				return fmt.Errorf("sharding: replay lsn %d: corrupt document: %w", rec.LSN, err)
			}
			// The store keeps a copy, not a view of the journal image.
			// An insert that failed (and rolled back) originally fails
			// identically here; its rollback delete follows in the
			// journal.
			_ = c.insertRaw(bytes.Clone(rec.Body))
		case opDelete:
			shard, id, err := decodeDelete(rec.Body)
			if err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
			if err := c.applyJournaledDelete(shard, id); err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
		case opInsertBatch:
			batchID, docs, err := decodeInsertBatch(rec.Body)
			if err != nil {
				return fmt.Errorf("sharding: replay lsn %d: corrupt batch: %w", rec.LSN, err)
			}
			// Per-document failures replay identically to the original
			// execution; the batch's dedup mark is re-established.
			c.mu.Lock()
			_, _, _ = c.insertBatchLocked(batchID, docs)
			c.mu.Unlock()
		case opDropBelow:
			prefix, err := decodeDropBelow(rec.Body)
			if err != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, err)
			}
			c.mu.Lock()
			_, derr := c.dropBelowLocked(prefix)
			c.mu.Unlock()
			if derr != nil {
				return fmt.Errorf("sharding: replay lsn %d: %w", rec.LSN, derr)
			}
		default:
			return fmt.Errorf("sharding: replay lsn %d: unknown op %d", rec.LSN, rec.Op)
		}
	}
	return nil
}

// applyJournaledDelete re-executes one journaled per-document delete:
// remove the record from its shard and keep the chunk statistics
// accurate, exactly as Cluster.Delete did originally. A missing
// record is skipped — it was the rollback of a failed insert, which
// the replayed insert already rolled back.
func (c *Cluster) applyJournaledDelete(shard int, id storage.RecordID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if shard < 0 || shard >= len(c.shards) {
		return fmt.Errorf("sharding: delete names unknown shard %d", shard)
	}
	coll := c.shards[shard].Coll
	raw, ok := coll.Store().FetchRaw(id)
	if !ok {
		return nil // rolled-back insert: nothing to delete
	}
	if err := coll.Delete(id); err != nil {
		return err
	}
	c.noteDeletedLocked(raw)
	return nil
}

// ContentFingerprint summarises the documents stored across every
// shard: the live document count and an order-independent checksum of
// their raw bytes. Two clusters holding the same documents fingerprint
// identically regardless of shard placement, which makes the value a
// dataset identity for benchmark reports and a cheap recovery check.
func (c *Cluster) ContentFingerprint() (docs int, checksum uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	table := crc32.MakeTable(crc32.Castagnoli)
	for _, s := range c.shards {
		s.Coll.Store().Walk(func(_ storage.RecordID, raw []byte) bool {
			docs++
			// Mix each document's CRC through SplitMix64 so the
			// commutative sum still reacts to multiplicity and value.
			x := uint64(crc32.Checksum(raw, table)) + 0x9E3779B97F4A7C15
			x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
			x = (x ^ (x >> 27)) * 0x94D049BB133111EB
			checksum += x ^ (x >> 31)
			return true
		})
	}
	return docs, checksum
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
	b = appendUvarint(b, snapshotVersion)
	b = appendUvarint(b, c.dur.lsn)
	b = append(b, encodeInitBody(c.opts)...)

	if c.sharded {
		b = append(b, 1)
		b = appendBytes(b, encodeShardKey(c.key))
	} else {
		b = append(b, 0)
	}

	b = appendUvarint(b, uint64(len(c.chunks)))
	for _, ch := range c.chunks {
		b = appendBytes(b, ch.Min)
		b = appendBytes(b, ch.Max)
		b = appendUvarint(b, uint64(ch.Shard))
		b = appendVarint(b, int64(ch.Docs))
		b = appendVarint(b, ch.Bytes)
	}

	b = appendBytes(b, encodeZones(c.zones))

	b = appendVarint(b, int64(c.sinceBalance))
	b = appendVarint(b, int64(c.splits))
	b = appendVarint(b, int64(c.migrations))
	b = appendVarint(b, int64(c.jumbo))

	b = appendUvarint(b, uint64(len(c.shards)))
	for _, s := range c.shards {
		// Secondary index definitions in creation order (the _id index
		// is implicit).
		var defs []index.Definition
		for _, ix := range s.Coll.Indexes() {
			if ix.Def().Name != "_id_" {
				defs = append(defs, ix.Def())
			}
		}
		b = appendUvarint(b, uint64(len(defs)))
		for _, def := range defs {
			b = appendBytes(b, encodeIndexDef(def))
		}

		store := s.Coll.Store()
		b = appendUvarint(b, uint64(store.NextID()))
		b = appendUvarint(b, uint64(store.Len()))
		store.Walk(func(id storage.RecordID, raw []byte) bool {
			b = appendUvarint(b, uint64(id))
			b = appendBytes(b, raw)
			return true
		})
	}

	// v2: the dedup window, so idempotent retries survive a
	// checkpoint's journal reset.
	ids := c.dedup.entries()
	b = appendUvarint(b, uint64(len(ids)))
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
	structural, err := decodeInitBody(d)
	if err != nil {
		return nil, err
	}
	c := NewCluster(mergeRuntime(structural, caller))

	if d.byte() == 1 {
		key, err := decodeShardKey(d.bytes())
		if err != nil {
			return nil, err
		}
		c.key = key
		c.sharded = true
	}

	nchunks := int(d.uvarint())
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
		ndefs := int(d.uvarint())
		defs := make([]index.Definition, 0, ndefs)
		for i := 0; i < ndefs; i++ {
			def, err := decodeIndexDef(d.bytes())
			if err != nil {
				return nil, err
			}
			defs = append(defs, def)
		}

		nextID := storage.RecordID(d.uvarint())
		nrecs := int(d.uvarint())
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
		}
		for _, def := range defs {
			if _, err := s.Coll.CreateIndex(def); err != nil {
				return nil, err
			}
		}
		s.Coll.Store().SetNextID(nextID)
	}
	if version >= 2 {
		nids := int(d.uvarint())
		for i := 0; i < nids; i++ {
			c.dedup.add(d.string())
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("sharding: corrupt snapshot: %w", d.err)
	}
	return c, nil
}

// --- op body codecs -------------------------------------------------

// encodeInit frames the structural options; encodeInitBody is shared
// with the snapshot payload.
func encodeInit(opts Options) []byte { return encodeInitBody(opts) }

func encodeInitBody(opts Options) []byte {
	var b []byte
	b = appendUvarint(b, uint64(opts.Shards))
	b = appendVarint(b, opts.ChunkMaxBytes)
	b = appendVarint(b, int64(opts.AutoBalanceEvery))
	b = appendString(b, opts.CollectionName)
	return b
}

func decodeInit(body []byte) (Options, error) {
	d := &decoder{buf: body}
	return decodeInitBody(d)
}

func decodeInitBody(d *decoder) (Options, error) {
	var opts Options
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
	b = appendUvarint(b, uint64(len(key.Fields)))
	for _, f := range key.Fields {
		b = appendString(b, f)
	}
	return b
}

func decodeShardKey(body []byte) (ShardKey, error) {
	d := &decoder{buf: body}
	var key ShardKey
	key.Strategy = Strategy(d.byte())
	n := int(d.uvarint())
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
	b = appendUvarint(b, uint64(def.GeoBits))
	b = appendUvarint(b, uint64(len(def.Fields)))
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
	n := int(d.uvarint())
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
	b = appendUvarint(b, uint64(len(zones)))
	for _, z := range zones {
		b = appendString(b, z.Name)
		b = appendBytes(b, z.Min)
		b = appendBytes(b, z.Max)
		b = appendUvarint(b, uint64(z.Shard))
	}
	return b
}

func decodeZones(body []byte) ([]Zone, error) {
	d := &decoder{buf: body}
	n := int(d.uvarint())
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

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendVarint(b []byte, v int64) []byte {
	// ZigZag.
	return appendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

func appendBytes(b, v []byte) []byte {
	b = appendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
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
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		if d.err != nil || len(d.buf) == 0 || i == 10 {
			d.fail()
			return 0
		}
		c := d.buf[0]
		d.buf = d.buf[1:]
		v |= uint64(c&0x7F) << shift
		if c < 0x80 {
			return v
		}
		shift += 7
	}
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
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
