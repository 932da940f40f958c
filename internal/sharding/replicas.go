package sharding

// Replication wiring: every shard can be a small replica group
// (internal/replication), with the primary's storage hook fanning its
// logical ops into the group's record stream. The router consults the
// group on the read path (read preference, failover — see router.go);
// this file holds the cluster-level lifecycle: enabling/disabling
// replication, read-preference and write-concern switches, explicit
// failover, per-follower stop/restart, and the deferred promotion the
// router requests mid-scatter.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/replication"
	"repro/internal/storage"
)

// ReadMode selects the router's per-shard read target.
type ReadMode int

const (
	// ReadPrimaryPreferred (the default) reads from the primary and
	// falls over to the freshest replica — regardless of lag — when
	// the primary is unreachable. With zero replicas it is exactly the
	// historical primary-only behaviour.
	ReadPrimaryPreferred ReadMode = iota
	// ReadPrimary never touches a replica: an unreachable primary
	// fails the shard (the PR 3 partial-result semantics even when
	// replicas exist).
	ReadPrimary
	// ReadNearest prefers the freshest replica whose lag is within
	// MaxLagLSN, falling back to the primary (and back to a replica on
	// primary failure, still bounded by MaxLagLSN).
	ReadNearest
)

// ReadPref is a read mode plus its staleness bound.
type ReadPref struct {
	Mode ReadMode
	// MaxLagLSN bounds a ReadNearest replica's staleness in LSNs
	// behind the primary (0 = only fully caught-up replicas).
	MaxLagLSN uint64
}

func (p ReadPref) String() string {
	switch p.Mode {
	case ReadPrimary:
		return "primary"
	case ReadNearest:
		return fmt.Sprintf("nearest=%d", p.MaxLagLSN)
	}
	return "primaryPreferred"
}

// ParseReadPref parses "primary", "primaryPreferred" (the default),
// "nearest", or "nearest=<maxLagLSN>".
func ParseReadPref(s string) (ReadPref, error) {
	switch s {
	case "", "primaryPreferred":
		return ReadPref{Mode: ReadPrimaryPreferred}, nil
	case "primary":
		return ReadPref{Mode: ReadPrimary}, nil
	case "nearest":
		return ReadPref{Mode: ReadNearest}, nil
	}
	if arg, ok := strings.CutPrefix(s, "nearest="); ok {
		lag, err := strconv.ParseUint(arg, 10, 64)
		if err != nil {
			return ReadPref{}, fmt.Errorf("sharding: read preference %q: bad lag bound", s)
		}
		return ReadPref{Mode: ReadNearest, MaxLagLSN: lag}, nil
	}
	return ReadPref{}, fmt.Errorf("sharding: unknown read preference %q (want primary|primaryPreferred|nearest[=lag])", s)
}

// shardHook is the storage.Hook of one replicated shard's primary
// store: it fans every stored and deleted record into the shard's
// replication stream — migrations included, because a follower only
// stays identical to its primary by seeing every op (the journal, by
// contrast, re-derives them on replay). It runs under the cluster write
// lock, like every cluster mutation. A shard without replicas has no
// hook.
type shardHook struct {
	c     *Cluster
	shard int
}

// Inserted implements storage.Hook.
func (h *shardHook) Inserted(id storage.RecordID, raw []byte) {
	if g := h.c.replGroupLocked(h.shard); g != nil {
		g.StreamInsert(id, raw)
	}
}

// Deleted implements storage.Hook.
func (h *shardHook) Deleted(id storage.RecordID, _ []byte) {
	if g := h.c.replGroupLocked(h.shard); g != nil {
		g.StreamDelete(id)
	}
}

// replGroupLocked returns shard sid's replica group (nil when
// replication is off). Callers hold c.mu in either mode, or have
// exclusive access (construction).
func (c *Cluster) replGroupLocked(sid int) *replication.Group {
	if sid < 0 || sid >= len(c.repl) {
		return nil
	}
	return c.repl[sid]
}

// SetReplicas (re)builds every shard's replica group with n followers
// each, cloned from the current primaries; n <= 0 tears replication
// down. Existing groups are always torn down first — followers are
// volatile (they are re-seeded from the primaries, never recovered
// from disk).
func (c *Cluster) SetReplicas(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setReplicasLocked(n)
}

func (c *Cluster) setReplicasLocked(n int) error {
	for _, g := range c.repl {
		if g != nil {
			g.Close()
		}
	}
	c.repl = nil
	// The hooks exist only to feed the stream: rebuilt with the groups.
	for _, s := range c.shards {
		s.Coll.Store().SetHook(nil)
	}
	if n <= 0 {
		c.opts.Replicas = 0
		return nil
	}
	c.opts.Replicas = n
	cfg := replication.Config{
		Followers:  n,
		Concern:    c.opts.WriteConcern,
		AckTimeout: c.opts.AckTimeout,
	}
	c.repl = make([]*replication.Group, len(c.shards))
	for i, s := range c.shards {
		g, err := replication.NewGroup(i, s.Coll, cfg)
		if err != nil {
			for _, prev := range c.repl {
				if prev != nil {
					prev.Close()
				}
			}
			c.repl = nil
			c.opts.Replicas = 0
			return err
		}
		c.repl[i] = g
	}
	for i, s := range c.shards {
		s.Coll.Store().SetHook(&shardHook{c: c, shard: i})
	}
	return nil
}

// SetReadPref switches the router's read preference.
func (c *Cluster) SetReadPref(p ReadPref) {
	c.mu.Lock()
	c.opts.ReadPref = p
	c.mu.Unlock()
}

// ReadPrefState returns the router's current read preference.
func (c *Cluster) ReadPrefState() ReadPref {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.opts.ReadPref
}

// SetWriteConcern switches the write concern on the cluster and every
// replica group.
func (c *Cluster) SetWriteConcern(w replication.WriteConcern) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opts.WriteConcern = w
	for _, g := range c.repl {
		if g != nil {
			g.SetConcern(w)
		}
	}
}

// SyncReplicas blocks until every running follower has applied its
// group's full stream; followers flagged for resync are restarted
// first (the anti-entropy sweep — safe here because the write lock
// keeps the primaries quiescent).
func (c *Cluster) SyncReplicas() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, g := range c.repl {
		if g == nil {
			continue
		}
		for i, f := range g.Status().Followers {
			if f.NeedsResync {
				if err := g.RestartFollower(i); err != nil {
					return err
				}
			}
		}
		if err := g.SyncAll(0); err != nil {
			return err
		}
	}
	return nil
}

// ReplicationStatus snapshots every shard's replica group (empty when
// replication is off).
func (c *Cluster) ReplicationStatus() []replication.GroupStatus {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []replication.GroupStatus
	for _, g := range c.repl {
		if g != nil {
			out = append(out, g.Status())
		}
	}
	return out
}

// Failover explicitly promotes shard sid's best follower to primary —
// the manual counterpart of the automatic promotion the router
// requests when a primary is unreachable.
func (c *Cluster) Failover(sid int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sid < 0 || sid >= len(c.shards) {
		return fmt.Errorf("sharding: no shard %d", sid)
	}
	return c.promoteLocked(sid)
}

// StopFollower simulates a replica crash on shard sid (its applied
// LSN freezes); RestartFollower brings it back via tail replay or
// full resync.
func (c *Cluster) StopFollower(sid, follower int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.replGroupLocked(sid)
	if g == nil {
		return fmt.Errorf("sharding: shard %d has no replica group", sid)
	}
	return g.StopFollower(follower)
}

// RestartFollower restarts a stopped follower on shard sid.
func (c *Cluster) RestartFollower(sid, follower int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.replGroupLocked(sid)
	if g == nil {
		return fmt.Errorf("sharding: shard %d has no replica group", sid)
	}
	return g.RestartFollower(follower)
}

// promotePending promotes every group the router flagged during a
// scatter. Queries hold the read lock, so promotion cannot happen in
// place; the query wrappers call this after releasing it.
func (c *Cluster) promotePending() {
	c.mu.RLock()
	pending := false
	for _, g := range c.repl {
		if g != nil && g.PromotePending() {
			pending = true
			break
		}
	}
	c.mu.RUnlock()
	if !pending {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for sid, g := range c.repl {
		if g != nil && g.TakePromotePending() {
			// A failed promotion (no promotable follower) leaves the
			// shard primary-less but queryable via replicas; nothing
			// actionable here.
			_ = c.promoteLocked(sid)
		}
	}
}

// promoteLocked swaps shard sid's primary for its best follower:
// highest applied LSN wins, lowest follower ID breaks ties, and the
// promoted follower replays any stream tail it missed first. The old
// primary's hook is detached, the new primary gets it (so streaming
// continues in the same LSN space), the shard's epoch
// bumps (releasing FaultConn programs bound to the dead primary), and
// the breaker resets.
func (c *Cluster) promoteLocked(sid int) error {
	g := c.replGroupLocked(sid)
	if g == nil {
		return fmt.Errorf("sharding: shard %d has no replica group", sid)
	}
	old := c.shards[sid].Coll
	newColl, _, err := g.Promote()
	if err != nil {
		return err
	}
	old.Store().SetHook(nil)
	c.shards[sid].Coll = newColl
	newColl.Store().SetHook(&shardHook{c: c, shard: sid})
	c.shards[sid].Epoch++
	c.breakers[sid] = newBreaker(c.opts.Resilience)
	// The promoted follower may lag the old primary: its content epoch
	// moves (cached results against the old primary are stale) and its
	// chunks' sketches are rebuilt from what it actually holds.
	c.bumpEpochLocked(sid)
	c.rebuildShardSummariesLocked(sid)
	return nil
}

// replWaitLocked holds the completing write operation until the
// configured write concern is satisfied on every replica group that
// streamed records. Callers hold the write lock; appliers don't need
// it, so they make progress while this waits.
func (c *Cluster) replWaitLocked() error {
	if len(c.repl) == 0 || c.opts.WriteConcern == replication.AckPrimary {
		return nil
	}
	for _, g := range c.repl {
		if g == nil {
			continue
		}
		if err := g.WaitCommitted(g.LastLSN()); err != nil {
			return err
		}
	}
	return nil
}

// closeReplicasLocked tears every group down (cluster Close path).
func (c *Cluster) closeReplicasLocked() {
	for _, g := range c.repl {
		if g != nil {
			g.Close()
		}
	}
	c.repl = nil
}
