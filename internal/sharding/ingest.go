package sharding

// Continuous ingest: a group-commit batcher over the cluster's write
// path, plus the idempotent batch machinery it rides on.
//
// The paper's pipeline is load-then-query; the production north star
// is a store that ingests continuously from many clients. Two pieces
// close that gap here:
//
//   - Every insert is a batch. commitIngest is the one body the write
//     path runs — Cluster.Insert (a batch of one with no id),
//     Cluster.InsertBatchRaw, the Ingester's coalesced groups and
//     journal replay alike: take the write lock, append ONE
//     opInsertBatch journal record per batch, apply its documents,
//     commit. The record is CRC-framed, so
//     a crash mid-append truncates it whole: after recovery the batch
//     is either fully applied or fully absent, never torn. The batch ID
//     enters a bounded dedup window that is itself rebuilt from the
//     journal (and carried by snapshots), so a retried batch — a client
//     that never saw its ack, before or after a crash — applies exactly
//     once.
//
//   - Ingester coalesces concurrent InsertBatchRaw callers into
//     groups of at most maxBatchDocs documents: one cluster write-lock
//     acquisition and one journal group commit per group, run by a
//     single committer goroutine. It has no queue bound of its own:
//     over the wire the server's admission gate (netconn) bounds the
//     writes in flight, and an in-process caller holds its own batch
//     until the commit answers.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bson"
	"repro/internal/wal"
)

// ErrClosed refuses a write to a cluster, or through an Ingester, that
// was closed: nothing of the write is journaled or applied.
var ErrClosed = errors.New("sharding: cluster closed")

// dedupWindowSize is the number of recent batch IDs remembered for
// idempotent retries: the retry horizon of a client batch.
const dedupWindowSize = 1024

// BatchInserter is the write-path boundary: anything that can apply an
// idempotent client batch of encoded documents. Ingester implements it
// in-process; the network transport implements it by broadcasting the
// batch to every daemon (each holds the full cluster, so identical
// application keeps their fingerprints converged).
//
// Documents cross this boundary as bytes, encoded once where they
// entered the system. Each must be a valid canonical encoding
// (bson.Validate — what bson.Marshal writes); an implementation that
// stores them takes ownership, so the caller neither modifies nor
// reuses the slices afterwards.
type BatchInserter interface {
	InsertBatchRaw(ctx context.Context, batchID string, docs [][]byte) (applied int, dup bool, err error)
}

// dedupWindow remembers the most recent batch IDs in insertion order.
// Bounded: once full, admitting a new ID evicts the oldest, so a
// client that retries a batch older than the window re-applies it —
// the window size is the retry horizon, not a correctness cliff the
// store can hit by running long enough.
type dedupWindow struct {
	cap   int
	ids   map[string]struct{}
	order []string // ring buffer of size cap once warm
	next  int
}

func newDedupWindow(capacity int) *dedupWindow {
	return &dedupWindow{cap: capacity, ids: make(map[string]struct{}, capacity)}
}

func (w *dedupWindow) seen(id string) bool {
	_, ok := w.ids[id]
	return ok
}

func (w *dedupWindow) add(id string) {
	if _, ok := w.ids[id]; ok {
		return
	}
	if len(w.order) < w.cap {
		w.order = append(w.order, id)
	} else {
		delete(w.ids, w.order[w.next])
		w.order[w.next] = id
		w.next = (w.next + 1) % w.cap
	}
	w.ids[id] = struct{}{}
}

// entries returns the remembered IDs oldest-first — the snapshot
// payload ordering, so a restored window evicts in the same order.
func (w *dedupWindow) entries() []string {
	out := make([]string, 0, len(w.order))
	out = append(out, w.order[w.next:]...)
	out = append(out, w.order[:w.next]...)
	return out
}

// InsertBatch encodes docs and applies them as one batch:
// InsertBatchRaw on their encodings.
func (c *Cluster) InsertBatch(batchID string, docs []*bson.Document) (applied int, dup bool, err error) {
	return c.InsertBatchRaw(batchID, bson.MarshalAll(docs))
}

// InsertBatchRaw routes and stores encoded documents as one atomic,
// idempotent batch. The whole batch is framed into a single
// opInsertBatch journal record before any document is applied, so
// recovery replays it all-or-nothing. The bytes the record frames are the bytes the stores keep: docs must be valid
// canonical encodings, and the cluster owns them afterwards.
//
// batchID is the client's idempotency token: a batch whose ID is in
// the dedup window returns (0, true, nil) without applying anything.
// An empty batchID opts out of deduplication.
//
// applied counts the documents stored; err is the first per-document
// failure (later documents are still attempted, and replay reproduces
// the same partial outcome deterministically).
func (c *Cluster) InsertBatchRaw(batchID string, docs [][]byte) (applied int, dup bool, err error) {
	r := ingestReq{batchID: batchID, docs: docs}
	c.commitIngest([]*ingestReq{&r})
	return r.applied, r.dup, r.err
}

// commitIngest is the write path's one body: it applies a group of
// batches under one write-lock acquisition and one journal group
// commit, and leaves each batch's outcome in its request. Replay calls it with the journal detached.
func (c *Cluster) commitIngest(reqs []*ingestReq) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		for _, r := range reqs {
			r.err = ErrClosed
		}
		return
	}
	for _, r := range reqs {
		r.applied, r.dup, r.err = c.insertBatchLocked(r.batchID, r.docs)
	}
	if err := c.finishWriteLocked(nil); err != nil {
		for _, r := range reqs {
			if r.err == nil {
				r.err = err
			}
		}
	}
}

// insertBatchLocked journals and applies one batch; the caller holds
// the write lock and commits the journal afterwards.
func (c *Cluster) insertBatchLocked(batchID string, docs [][]byte) (applied int, dup bool, err error) {
	if batchID != "" && c.dedup.seen(batchID) {
		return 0, true, nil
	}
	if c.dur != nil && len(docs) > 0 {
		if err := CheckBatchRecord(batchID, docs); err != nil {
			return 0, false, err
		}
		c.journal(opInsertBatch, encodeInsertBatch(batchID, docs))
	}
	for _, raw := range docs {
		if derr := c.insertRawLocked(raw); derr != nil {
			if err == nil {
				err = derr
			}
			continue
		}
		applied++
	}
	if batchID != "" {
		c.dedup.add(batchID)
	}
	return applied, false, err
}

// errBatchRecordTooLarge refuses a batch whose journal record would
// not fit in one journal frame (wal.MaxFrameBody): recovery would read
// such a record as a torn tail and cut the journal there, losing the
// batch and every write after it.
var errBatchRecordTooLarge = errors.New("batch too large for one journal record")

// CheckBatchRecord refuses a batch whose opInsertBatch record would
// exceed wal.MaxFrameBody. The refusal is permanent: a retry of the
// same batch cannot fit either. A durable cluster checks every batch,
// and every slice of a Load, before anything is journaled or applied;
// the network servers check every insert they receive, durable or not,
// so that each replica of a broadcast batch gives the same answer.
func CheckBatchRecord(batchID string, docs [][]byte) error {
	if n := insertBatchSize(batchID, docs); n > wal.MaxFrameBody {
		return fmt.Errorf("sharding: batch %q: %w (%d bytes, limit %d)", batchID, errBatchRecordTooLarge, n, wal.MaxFrameBody)
	}
	return nil
}

// insertBatchSize is the exact length of encodeInsertBatch's record.
func insertBatchSize(batchID string, docs [][]byte) int {
	n := uvarintLen(len(batchID)) + len(batchID) + uvarintLen(len(docs))
	for _, raw := range docs {
		n += uvarintLen(len(raw)) + len(raw)
	}
	return n
}

func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// encodeInsertBatch frames the batch ID and each document's bytes —
// the very bytes the stores keep.
func encodeInsertBatch(batchID string, docs [][]byte) []byte {
	b := make([]byte, 0, insertBatchSize(batchID, docs))
	b = appendString(b, batchID)
	b = binary.AppendUvarint(b, uint64(len(docs)))
	for _, raw := range docs {
		b = appendBytes(b, raw)
	}
	return b
}

// decodeInsertBatch reads a batch record back for replay. Every
// document is copied out of the record buffer — the stores will own
// the copies, and must not pin the journal image they were read from —
// and validated.
func decodeInsertBatch(body []byte) (batchID string, docs [][]byte, err error) {
	d := &decoder{buf: body}
	batchID = d.string()
	n := d.count(1)
	for i := 0; i < n; i++ {
		raw := d.bytesCopy()
		if d.err != nil {
			break
		}
		if _, verr := bson.Validate(raw); verr != nil {
			return "", nil, verr
		}
		docs = append(docs, raw)
	}
	if d.err != nil {
		return "", nil, d.err
	}
	return batchID, docs, nil
}

// --- the group-commit batcher ----------------------------------------

// maxBatchDocs caps the documents coalesced into one group commit. A
// single larger batch still commits alone.
const maxBatchDocs = 256

// IngestStats is a point-in-time snapshot of the batcher's counters.
type IngestStats struct {
	Applied uint64 `json:"applied"` // documents stored
	Dups    uint64 `json:"dups"`    // batches answered from the dedup window
	Batches uint64 `json:"batches"` // client batches committed
	Commits uint64 `json:"commits"` // coalesced group commits
	Sheds   uint64 `json:"sheds"`   // always 0: the batcher never sheds (the admission gate does)
	Queued  int    `json:"queued"`  // documents waiting for the committer right now
}

// ingestReq is one client batch waiting for its group commit.
type ingestReq struct {
	batchID string
	docs    [][]byte
	done    chan struct{}
	applied int
	dup     bool
	err     error
}

// Ingester coalesces concurrent writers into group commits against
// one cluster. Start with NewIngester, stop with Close (which drains
// what was already enqueued).
type Ingester struct {
	c *Cluster

	mu      sync.Mutex
	pending []*ingestReq
	closing bool

	kick chan struct{} // committer wakeup, capacity 1
	done chan struct{} // closed when the committer exits

	applied, dups, batches, commits atomic.Uint64
}

// NewIngester starts the committer goroutine.
func NewIngester(c *Cluster) *Ingester {
	in := &Ingester{
		c:    c,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go in.run()
	return in
}

// InsertBatchRaw enqueues a client batch of encoded documents (see
// BatchInserter for what they must be) and waits for its commit. On ctx
// cancellation the call returns early but the enqueued batch still
// commits; a retry with the same batchID is deduplicated.
func (in *Ingester) InsertBatchRaw(ctx context.Context, batchID string, docs [][]byte) (applied int, dup bool, err error) {
	if len(docs) == 0 {
		return 0, false, nil
	}
	req := &ingestReq{batchID: batchID, docs: docs, done: make(chan struct{})}
	if err := in.enqueue(req); err != nil {
		return 0, false, err
	}
	select {
	case <-req.done:
		return req.applied, req.dup, req.err
	case <-ctx.Done():
		return 0, false, ctx.Err()
	}
}

// enqueue hands the request to the committer.
func (in *Ingester) enqueue(req *ingestReq) error {
	in.mu.Lock()
	if in.closing {
		in.mu.Unlock()
		return ErrClosed
	}
	in.pending = append(in.pending, req)
	in.mu.Unlock()
	in.wake()
	return nil
}

// wake kicks the committer without blocking: one pending kick is
// enough for it to see everything enqueued before it runs.
func (in *Ingester) wake() {
	select {
	case in.kick <- struct{}{}:
	default:
	}
}

// run is the committer loop: take everything pending up to
// maxBatchDocs, commit it under one write-lock acquisition, ack the
// requests, repeat.
func (in *Ingester) run() {
	defer close(in.done)
	for {
		in.mu.Lock()
		for len(in.pending) == 0 {
			closing := in.closing
			in.mu.Unlock()
			if closing {
				return
			}
			<-in.kick
			in.mu.Lock()
		}
		var take []*ingestReq
		docs := 0
		for len(in.pending) > 0 {
			r := in.pending[0]
			if len(take) > 0 && docs+len(r.docs) > maxBatchDocs {
				break
			}
			take = append(take, r)
			docs += len(r.docs)
			in.pending = in.pending[1:]
		}
		in.mu.Unlock()
		in.commitGroup(take)
	}
}

// commitGroup runs one coalesced commit and acks its requests.
func (in *Ingester) commitGroup(reqs []*ingestReq) {
	in.c.commitIngest(reqs)
	in.commits.Add(1)
	in.batches.Add(uint64(len(reqs)))
	for _, r := range reqs {
		if r.dup {
			in.dups.Add(1)
		} else {
			in.applied.Add(uint64(r.applied))
		}
	}
	for _, r := range reqs {
		close(r.done)
	}
}

// Stats snapshots the batcher's counters.
func (in *Ingester) Stats() IngestStats {
	in.mu.Lock()
	queued := 0
	for _, r := range in.pending {
		queued += len(r.docs)
	}
	in.mu.Unlock()
	return IngestStats{
		Applied: in.applied.Load(),
		Dups:    in.dups.Load(),
		Batches: in.batches.Load(),
		Commits: in.commits.Load(),
		Queued:  queued,
	}
}

// Close refuses new enqueues with ErrClosed, commits everything already
// enqueued, and waits for the committer goroutine to exit.
func (in *Ingester) Close() error {
	in.mu.Lock()
	if in.closing {
		in.mu.Unlock()
		<-in.done
		return nil
	}
	in.closing = true
	in.mu.Unlock()
	in.wake()
	<-in.done
	return nil
}
