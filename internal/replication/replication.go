// Package replication turns each shard into a small replica group:
// the shard primary streams its logical-op WAL records to N
// in-process followers over a bounded wal.Log, writes wait for a
// configurable write concern, and a follower can serve reads (with an
// observable LSN lag) or be promoted to primary when the primary is
// lost. The source paper assumes a healthy cluster; this package is
// the availability layer that keeps spatio-temporal queries complete
// when a shard goes down.
//
// Locking: Group.mu guards group structure (log head, follower set,
// primary pointer). Each Follower has its own RWMutex — the applier
// holds it exclusively while applying an op, replica reads hold it
// shared — so appliers never need any cluster-level lock and
// write-concern waits issued under a cluster write lock cannot
// deadlock against them. Ack waiting uses a separate condition
// variable (ackMu/ackCond) signalled by appliers after every apply.
package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/storage"
	"repro/internal/wal"
)

// WriteConcern selects how many replica-group members must have
// applied a write before it is acknowledged.
type WriteConcern int

const (
	// AckPrimary acknowledges once the primary applied the write.
	AckPrimary WriteConcern = iota
	// AckMajority waits for a majority of the group (primary + floor(N/2)
	// followers of the N-member group) to have applied the write.
	AckMajority
	// AckAll waits for every follower. A stopped follower makes
	// AckAll writes time out — the strictest durability/availability
	// trade-off.
	AckAll
)

func (w WriteConcern) String() string {
	switch w {
	case AckPrimary:
		return "primary"
	case AckMajority:
		return "majority"
	case AckAll:
		return "all"
	}
	return fmt.Sprintf("WriteConcern(%d)", int(w))
}

// ParseWriteConcern parses "primary", "majority", or "all".
func ParseWriteConcern(s string) (WriteConcern, error) {
	switch s {
	case "primary", "":
		return AckPrimary, nil
	case "majority":
		return AckMajority, nil
	case "all":
		return AckAll, nil
	}
	return 0, fmt.Errorf("replication: unknown write concern %q (want primary|majority|all)", s)
}

// Replication stream opcodes. Unlike the journal's insert records (raw bodies
// only — replay re-runs routing), the stream carries the record id
// explicitly so a follower stores every record under the identical id
// and a promoted follower keeps assigning the same ids the old
// primary would have.
const (
	// OpInsert body: uvarint(record id) + raw document bytes.
	OpInsert uint8 = 1
	// OpDelete body: uvarint(record id).
	OpDelete uint8 = 2
)

// ErrAckTimeout reports a write concern that was not satisfied before
// the ack timeout elapsed.
var ErrAckTimeout = errors.New("replication: write concern not satisfied before timeout")

// Config parameterises one replica group.
type Config struct {
	// Followers is the number of in-process followers (replicas) per
	// shard primary.
	Followers int
	// Concern is the write concern applied by WaitCommitted.
	Concern WriteConcern
	// AckTimeout bounds WaitCommitted (default 2s).
	AckTimeout time.Duration
	// LogCapacity bounds the retained stream window (default
	// wal.DefaultLogCapacity). A follower lagging past the window
	// needs a full resync instead of tail replay.
	LogCapacity int
	// ChannelBuffer is each follower's subscription buffer (default 256).
	ChannelBuffer int
}

func (c Config) withDefaults() Config {
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.ChannelBuffer <= 0 {
		c.ChannelBuffer = 256
	}
	return c
}

// Follower is one replica: a full copy of the shard collection plus
// an applier goroutine consuming the group's record stream.
type Follower struct {
	// ID is stable across the follower's lifetime (creation order) —
	// it is the deterministic promotion tie-break.
	ID int

	g       *Group
	mu      sync.RWMutex // apply = Lock, replica read = RLock
	coll    *collection.Collection
	applied atomic.Uint64 // last applied LSN
	// appliedAt is the wall time (unix nanos) of the last applied
	// record — seeded at creation so "never applied" still ages. It
	// distinguishes a stalled follower (lag > 0 and appliedAt old)
	// from an idle one (lag 0: nothing to apply, however old).
	appliedAt atomic.Int64
	stopped   atomic.Bool   // applier asked to exit (StopFollower/Promote/Close)
	resync    atomic.Bool   // fell out of the log window; needs full resync
	sub       *wal.Sub      // guarded by g.mu
	done      chan struct{} // closed when the applier goroutine exits
}

// FollowerStatus is one follower's observable replication state.
type FollowerStatus struct {
	ID      int    `json:"id"`
	Applied uint64 `json:"applied"`
	Lag     uint64 `json:"lag"`
	// LagAge is how long the follower has been behind: the time since
	// it last applied a record, reported only while Lag > 0. A
	// caught-up follower always reports 0, however long the shard has
	// been idle — lag in LSNs alone cannot make that distinction on an
	// idle shard, since both a stalled and an idle follower hold a
	// constant Applied.
	LagAge time.Duration `json:"lagAgeNS,omitempty"`
	// AppliedAt is the wall time of the last applied record (or the
	// follower's creation).
	AppliedAt   time.Time `json:"appliedAt"`
	Stopped     bool      `json:"stopped,omitempty"`
	NeedsResync bool      `json:"needsResync,omitempty"`
}

// GroupStatus is a snapshot of one shard's replica group.
type GroupStatus struct {
	Shard     int              `json:"shard"`
	LastLSN   uint64           `json:"lastLSN"`
	Followers []FollowerStatus `json:"followers"`
	// MaxLagAge is the largest LagAge across followers — the age of
	// the most-stalled follower, 0 when every follower is caught up.
	MaxLagAge  time.Duration `json:"maxLagAgeNS,omitempty"`
	Promotions int           `json:"promotions"`
}

// Group is one shard's replica group: the primary's stream log plus
// its followers.
type Group struct {
	shard int
	cfg   Config

	mu         sync.Mutex // guards log head state, followers, primary, promotions, cfg.Concern
	log        *wal.Log
	lsn        uint64 // last streamed LSN
	primary    *collection.Collection
	followers  []*Follower
	promotions int
	nextID     int
	closed     bool

	promotePending atomic.Bool

	ackMu   sync.Mutex
	ackCond *sync.Cond
	waiters atomic.Int32
}

// NewGroup builds a replica group for shard: each follower is a deep
// clone of primary (same record ids, same index definitions) and an
// applier subscribed to the stream. The caller must guarantee the
// primary is quiescent for the duration of the call.
func NewGroup(shard int, primary *collection.Collection, cfg Config) (*Group, error) {
	cfg = cfg.withDefaults()
	g := &Group{
		shard:   shard,
		cfg:     cfg,
		log:     wal.NewLog(cfg.LogCapacity),
		primary: primary,
	}
	g.ackCond = sync.NewCond(&g.ackMu)
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i < cfg.Followers; i++ {
		coll, err := cloneCollection(primary)
		if err != nil {
			return nil, fmt.Errorf("replication: shard %d follower %d: %w", shard, i, err)
		}
		f := &Follower{ID: g.nextID, g: g, coll: coll}
		f.appliedAt.Store(time.Now().UnixNano())
		g.nextID++
		g.followers = append(g.followers, f)
		if err := g.startFollowerLocked(f); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Shard returns the shard index this group replicates.
func (g *Group) Shard() int { return g.shard }

// Primary returns the group's current primary collection.
func (g *Group) Primary() *collection.Collection {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.primary
}

// Followers returns the current follower count.
func (g *Group) Followers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.followers)
}

// StreamInsert ships one inserted record to the followers and returns
// the stream LSN. raw is copied.
func (g *Group) StreamInsert(id storage.RecordID, raw []byte) uint64 {
	body := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(raw)), uint64(id))
	body = append(body, raw...)
	return g.append(OpInsert, body)
}

// StreamDelete ships one deleted record to the followers and returns
// the stream LSN.
func (g *Group) StreamDelete(id storage.RecordID) uint64 {
	return g.append(OpDelete, binary.AppendUvarint(nil, uint64(id)))
}

func (g *Group) append(op uint8, body []byte) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return g.lsn
	}
	g.lsn++
	g.log.Append(wal.Record{LSN: g.lsn, Op: op, Body: body})
	return g.lsn
}

// LastLSN returns the last streamed LSN.
func (g *Group) LastLSN() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lsn
}

// SetConcern switches the group's write concern.
func (g *Group) SetConcern(w WriteConcern) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cfg.Concern = w
}

// CreateIndex creates the index on every follower. DDL is not part
// of the record stream; the cluster applies it group-wide under its
// write lock right after creating it on the primary.
func (g *Group) CreateIndex(def index.Definition) error {
	g.mu.Lock()
	followers := append([]*Follower(nil), g.followers...)
	g.mu.Unlock()
	for _, f := range followers {
		f.mu.Lock()
		_, err := f.coll.CreateIndex(def)
		f.mu.Unlock()
		if err != nil {
			return fmt.Errorf("replication: shard %d follower %d: %w", g.shard, f.ID, err)
		}
	}
	return nil
}

// RequestPromote flags the group for promotion. The router sets this
// while holding the cluster read lock (it cannot promote in place);
// the cluster promotes pending groups once the scatter completes.
func (g *Group) RequestPromote() { g.promotePending.Store(true) }

// TakePromotePending consumes a pending promotion request.
func (g *Group) TakePromotePending() bool {
	return g.promotePending.CompareAndSwap(true, false)
}

// PromotePending reports whether a promotion request is pending.
func (g *Group) PromotePending() bool { return g.promotePending.Load() }

// WaitCommitted blocks until the configured write concern holds for
// lsn, or the ack timeout elapses. AckPrimary returns immediately:
// the primary applied the op before it was streamed.
func (g *Group) WaitCommitted(lsn uint64) error {
	g.mu.Lock()
	concern := g.cfg.Concern
	timeout := g.cfg.AckTimeout
	followers := append([]*Follower(nil), g.followers...)
	g.mu.Unlock()

	var need int
	switch concern {
	case AckMajority:
		// Majority of the (followers+1)-member group; the primary
		// already counts, so floor((F+1)/2) follower acks remain.
		need = (len(followers) + 1) / 2
	case AckAll:
		need = len(followers)
	}
	if need == 0 || lsn == 0 {
		return nil
	}
	acked := func() int {
		n := 0
		for _, f := range followers {
			if f.applied.Load() >= lsn {
				n++
			}
		}
		return n
	}
	if acked() >= need {
		return nil
	}

	g.waiters.Add(1)
	defer g.waiters.Add(-1)
	var timedOut atomic.Bool
	timer := time.AfterFunc(timeout, func() {
		timedOut.Store(true)
		g.ackMu.Lock()
		g.ackCond.Broadcast()
		g.ackMu.Unlock()
	})
	defer timer.Stop()

	g.ackMu.Lock()
	defer g.ackMu.Unlock()
	for {
		if n := acked(); n >= need {
			return nil
		} else if timedOut.Load() {
			return fmt.Errorf("%w: shard %d lsn %d acked by %d/%d followers (concern %s)",
				ErrAckTimeout, g.shard, lsn, n, need, concern)
		}
		g.ackCond.Wait()
	}
}

// SyncAll blocks until every running follower has applied the last
// streamed LSN (timeout <= 0 means 5s). Stopped or resync-pending
// followers are not waited on.
func (g *Group) SyncAll(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	g.mu.Lock()
	target := g.lsn
	followers := append([]*Follower(nil), g.followers...)
	g.mu.Unlock()

	synced := func() bool {
		for _, f := range followers {
			if f.stopped.Load() || f.resync.Load() {
				continue
			}
			if f.applied.Load() < target {
				return false
			}
		}
		return true
	}
	if synced() {
		return nil
	}
	g.waiters.Add(1)
	defer g.waiters.Add(-1)
	var timedOut atomic.Bool
	timer := time.AfterFunc(timeout, func() {
		timedOut.Store(true)
		g.ackMu.Lock()
		g.ackCond.Broadcast()
		g.ackMu.Unlock()
	})
	defer timer.Stop()

	g.ackMu.Lock()
	defer g.ackMu.Unlock()
	for !synced() {
		if timedOut.Load() {
			return fmt.Errorf("replication: shard %d followers did not reach lsn %d in %v",
				g.shard, target, timeout)
		}
		g.ackCond.Wait()
	}
	return nil
}

// BestReplica picks the follower with the highest applied LSN
// (lowest ID on ties) whose lag is within maxLag. It returns the
// follower's current slice index (stable while the caller prevents
// group mutation, e.g. under the cluster read lock), the lag in LSNs,
// and whether an in-bounds replica exists.
func (g *Group) BestReplica(maxLag uint64) (idx int, lag uint64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	best := -1
	var bestApplied uint64
	for i, f := range g.followers {
		if f.stopped.Load() || f.resync.Load() {
			continue
		}
		if a := f.applied.Load(); best == -1 || a > bestApplied {
			best, bestApplied = i, a
		}
	}
	if best == -1 {
		return -1, 0, false
	}
	lag = g.lsn - bestApplied
	if lag > maxLag {
		return -1, lag, false
	}
	return best, lag, true
}

// View runs fn against follower i's collection under its read lock,
// so the applier cannot mutate the replica mid-query.
func (g *Group) View(i int, fn func(*collection.Collection) error) error {
	g.mu.Lock()
	if i < 0 || i >= len(g.followers) {
		g.mu.Unlock()
		return fmt.Errorf("replication: shard %d has no follower %d", g.shard, i)
	}
	f := g.followers[i]
	g.mu.Unlock()
	f.mu.RLock()
	defer f.mu.RUnlock()
	return fn(f.coll)
}

// Promote elects the follower with the highest applied LSN (lowest ID
// on ties), stops its applier, replays the stream tail it has not yet
// applied (full resync from the old primary's bytes if the tail fell
// out of the log window), removes it from the follower set, and
// installs its collection as the group primary. Returns the new
// primary and the promoted follower's ID. The caller must hold the
// cluster write lock (no concurrent writes or replica reads).
func (g *Group) Promote() (*collection.Collection, int, error) {
	g.mu.Lock()
	best := -1
	var bestApplied uint64
	for i, f := range g.followers {
		if f.resync.Load() {
			continue
		}
		if a := f.applied.Load(); best == -1 || a > bestApplied {
			best, bestApplied = i, a
		}
	}
	if best == -1 {
		g.mu.Unlock()
		return nil, -1, fmt.Errorf("replication: shard %d has no promotable follower", g.shard)
	}
	chosen := g.followers[best]
	sub := chosen.sub
	chosen.sub = nil
	g.mu.Unlock()

	// Stop the applier outside g.mu: closing the subscription makes it
	// drain buffered records in order, then exit on the stopped flag.
	chosen.stopped.Store(true)
	if sub != nil {
		g.log.Unsubscribe(sub)
	}
	if chosen.done != nil {
		<-chosen.done
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if applied := chosen.applied.Load(); applied < g.lsn {
		recs, ok := g.log.From(applied + 1)
		if ok {
			for _, r := range recs {
				if err := chosen.apply(r); err != nil {
					return nil, -1, fmt.Errorf("replication: shard %d promotion catch-up: %w", g.shard, err)
				}
			}
		} else {
			// The tail fell out of the retained window: resync from the
			// old primary's surviving bytes.
			coll, err := cloneCollection(g.primary)
			if err != nil {
				return nil, -1, fmt.Errorf("replication: shard %d promotion resync: %w", g.shard, err)
			}
			chosen.mu.Lock()
			chosen.coll = coll
			chosen.mu.Unlock()
			chosen.applied.Store(g.lsn)
		}
	}
	for i, f := range g.followers {
		if f == chosen {
			g.followers = append(g.followers[:i], g.followers[i+1:]...)
			break
		}
	}
	g.primary = chosen.coll
	g.promotions++
	return chosen.coll, chosen.ID, nil
}

// StopFollower halts follower i's applier (simulating a replica
// crash). Its applied LSN freezes; a later RestartFollower catches it
// up via tail replay or full resync.
func (g *Group) StopFollower(i int) error {
	g.mu.Lock()
	if i < 0 || i >= len(g.followers) {
		g.mu.Unlock()
		return fmt.Errorf("replication: shard %d has no follower %d", g.shard, i)
	}
	f := g.followers[i]
	sub := f.sub
	f.sub = nil
	g.mu.Unlock()
	if f.stopped.Swap(true) {
		return nil
	}
	if sub != nil {
		g.log.Unsubscribe(sub)
	}
	if f.done != nil {
		<-f.done
	}
	return nil
}

// RestartFollower brings a stopped (or resync-pending) follower back:
// it replays the stream tail from its frozen LSN when the log still
// retains it, otherwise clones the primary afresh. The caller must
// hold the cluster write lock (quiescent primary).
func (g *Group) RestartFollower(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 || i >= len(g.followers) {
		return fmt.Errorf("replication: shard %d has no follower %d", g.shard, i)
	}
	f := g.followers[i]
	if !f.stopped.Load() && !f.resync.Load() {
		return nil
	}
	return g.startFollowerLocked(f)
}

// Status snapshots the group's replication state.
func (g *Group) Status() GroupStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GroupStatus{Shard: g.shard, LastLSN: g.lsn, Promotions: g.promotions}
	now := time.Now()
	for _, f := range g.followers {
		applied := f.applied.Load()
		fs := FollowerStatus{
			ID:          f.ID,
			Applied:     applied,
			Lag:         g.lsn - applied,
			AppliedAt:   time.Unix(0, f.appliedAt.Load()),
			Stopped:     f.stopped.Load(),
			NeedsResync: f.resync.Load(),
		}
		if fs.Lag > 0 {
			fs.LagAge = now.Sub(fs.AppliedAt)
			if fs.LagAge < 0 {
				fs.LagAge = 0
			}
			if fs.LagAge > st.MaxLagAge {
				st.MaxLagAge = fs.LagAge
			}
		}
		st.Followers = append(st.Followers, fs)
	}
	return st
}

// Promotions returns how many promotions this group has performed.
func (g *Group) Promotions() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.promotions
}

// Close stops every follower and the stream log.
func (g *Group) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	followers := append([]*Follower(nil), g.followers...)
	g.mu.Unlock()
	for _, f := range followers {
		f.stopped.Store(true)
	}
	g.log.Close()
	for _, f := range followers {
		if f.done != nil {
			<-f.done
		}
	}
}

// startFollowerLocked (re)subscribes f at its applied LSN and starts
// its applier. Falls back to a full clone of the primary when the
// tail is no longer retained. Caller holds g.mu.
func (g *Group) startFollowerLocked(f *Follower) error {
	backlog, sub, ok := g.log.SubscribeFrom(f.applied.Load()+1, g.cfg.ChannelBuffer)
	if !ok {
		coll, err := cloneCollection(g.primary)
		if err != nil {
			return fmt.Errorf("replication: shard %d follower %d resync: %w", g.shard, f.ID, err)
		}
		f.mu.Lock()
		f.coll = coll
		f.mu.Unlock()
		f.applied.Store(g.lsn)
		backlog, sub, ok = g.log.SubscribeFrom(g.lsn+1, g.cfg.ChannelBuffer)
		if !ok {
			return fmt.Errorf("replication: shard %d follower %d: subscribe after resync failed", g.shard, f.ID)
		}
	}
	f.stopped.Store(false)
	f.resync.Store(false)
	f.sub = sub
	f.done = make(chan struct{})
	go f.run(sub, backlog)
	return nil
}

// run is the applier goroutine: apply the subscription backlog, then
// records as they arrive. A closed channel means either a stop
// request (exit) or buffer overflow (re-attach at applied+1 — the
// anti-entropy tail replay; if the tail fell out of the window, flag
// for full resync and exit).
func (f *Follower) run(sub *wal.Sub, backlog []wal.Record) {
	defer close(f.done)
	applyAll := func(recs []wal.Record) bool {
		for _, r := range recs {
			if f.stopped.Load() {
				return false
			}
			if err := f.apply(r); err != nil {
				f.resync.Store(true)
				return false
			}
			f.g.signalAcks()
		}
		return true
	}
	if !applyAll(backlog) {
		return
	}
	for {
		r, ok := <-sub.C
		if !ok {
			if f.stopped.Load() {
				return
			}
			newBacklog, newSub, ok := f.g.resubscribe(f)
			if !ok {
				f.resync.Store(true)
				return
			}
			if !applyAll(newBacklog) {
				return
			}
			sub = newSub
			continue
		}
		if f.stopped.Load() {
			return
		}
		if err := f.apply(r); err != nil {
			f.resync.Store(true)
			return
		}
		f.g.signalAcks()
	}
}

// apply applies one stream record under the follower's write lock.
func (f *Follower) apply(r wal.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := applyOp(f.coll, r); err != nil {
		return err
	}
	f.applied.Store(r.LSN)
	f.appliedAt.Store(time.Now().UnixNano())
	return nil
}

func applyOp(coll *collection.Collection, r wal.Record) error {
	id, n := binary.Uvarint(r.Body)
	if n <= 0 {
		return fmt.Errorf("replication: op %d: bad record id varint", r.Op)
	}
	switch r.Op {
	case OpInsert:
		return coll.RestoreRaw(storage.RecordID(id), r.Body[n:])
	case OpDelete:
		return coll.Delete(storage.RecordID(id))
	}
	return fmt.Errorf("replication: unknown op %d", r.Op)
}

func (g *Group) signalAcks() {
	if g.waiters.Load() == 0 {
		return
	}
	g.ackMu.Lock()
	g.ackCond.Broadcast()
	g.ackMu.Unlock()
}

func (g *Group) resubscribe(f *Follower) ([]wal.Record, *wal.Sub, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, nil, false
	}
	backlog, sub, ok := g.log.SubscribeFrom(f.applied.Load()+1, g.cfg.ChannelBuffer)
	if !ok {
		return nil, nil, false
	}
	f.sub = sub
	return backlog, sub, true
}

// cloneCollection deep-clones src: identical index definitions,
// identical record ids, shared (immutable) raw document bytes, and
// the same next-id counter so ids assigned after a promotion continue
// exactly where the source would have. The caller must guarantee src
// is quiescent.
func cloneCollection(src *collection.Collection) (*collection.Collection, error) {
	dst := collection.New(src.Name())
	for _, ix := range src.Indexes() {
		def := ix.Def()
		if def.Name == collection.IDIndexName {
			continue
		}
		if _, err := dst.CreateIndex(def); err != nil {
			return nil, err
		}
	}
	var cloneErr error
	src.Store().Walk(func(id storage.RecordID, raw []byte) bool {
		if err := dst.RestoreRaw(id, raw); err != nil {
			cloneErr = err
			return false
		}
		return true
	})
	if cloneErr != nil {
		return nil, cloneErr
	}
	dst.Store().SetNextID(src.Store().NextID())
	return dst, nil
}
