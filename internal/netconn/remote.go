package netconn

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bson"
	"repro/internal/query"
	"repro/internal/sharding"
	"repro/internal/wire"
)

// RemoteConn is the network ShardConn: each per-shard execution is
// serialized over a pooled TCP connection to whichever shard server
// announced that shard at handshake. Failures map onto the router's
// existing retry machinery — dial refusals, IO errors and torn
// streams are transient (another attempt may find the daemon healthy
// again), protocol violations and server-reported hard errors are
// not, and a server-reported transient error crosses the wire with
// its Transient bit intact.
type RemoteConn struct {
	addrs []string
	// pools maps shard id → the pool of the address serving it.
	pools    map[int]*pool
	byAddr   []*pool
	docs     uint64
	checksum uint64
	// batch is the documents asked for per reply frame:
	// DefaultBatchSize, or less in tests that cross frame boundaries.
	batch uint32
}

// Connect dials every address, handshakes, and builds the shard →
// address map from the served-shard lists the daemons announce. All
// peers must agree on the cluster content fingerprint; two daemons
// announcing the same shard id, or disagreeing fingerprints, mean a
// misassembled cluster and fail loudly here rather than as wrong
// query results later.
func Connect(addrs []string, opts Options) (*RemoteConn, error) {
	rc := &RemoteConn{addrs: addrs, pools: map[int]*pool{}, batch: DefaultBatchSize}
	for _, addr := range addrs {
		c, err := dialReady(addr, opts)
		if err != nil {
			rc.Close()
			return nil, err
		}
		p := newPool(addr, opts)
		p.put(c)
		rc.byAddr = append(rc.byAddr, p)
		if len(rc.byAddr) == 1 {
			rc.docs, rc.checksum = c.hello.Docs, c.hello.Checksum
		} else if !opts.Mutable && (c.hello.Docs != rc.docs || c.hello.Checksum != rc.checksum) {
			// Write-path conns (Mutable) skip this check: daemons may
			// legitimately disagree while an unacknowledged broadcast is
			// being retried — convergence is verified after quiesce, not
			// at connect time.
			rc.Close()
			return nil, fmt.Errorf("netconn: %s fingerprint (%d docs, %016x) disagrees with %s (%d docs, %016x)",
				addr, c.hello.Docs, c.hello.Checksum, addrs[0], rc.docs, rc.checksum)
		}
		for _, id := range c.hello.ShardIDs {
			if prev, ok := rc.pools[int(id)]; ok {
				rc.Close()
				return nil, fmt.Errorf("netconn: shard %d served by both %s and %s", id, prev.addr, addr)
			}
			rc.pools[int(id)] = p
		}
	}
	return rc, nil
}

// Fingerprint returns the cluster content fingerprint every peer
// announced at handshake.
func (rc *RemoteConn) Fingerprint() (docs int, checksum uint64) {
	return int(rc.docs), rc.checksum
}

// Shards returns the shard ids the connected servers cover,
// ascending.
func (rc *RemoteConn) Shards() []int {
	ids := make([]int, 0, len(rc.pools))
	for id := range rc.pools {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Covers errors unless the servers cover exactly shards 0..n-1 — the
// pre-flight check before installing this conn on an n-shard cluster.
func (rc *RemoteConn) Covers(n int) error {
	for id := 0; id < n; id++ {
		if rc.pools[id] == nil {
			return fmt.Errorf("netconn: no server for shard %d (servers cover %v)", id, rc.Shards())
		}
	}
	return nil
}

// Close closes every pooled connection.
func (rc *RemoteConn) Close() {
	for _, p := range rc.byAddr {
		p.close()
	}
}

// transientErr wraps a transport-level failure as a retryable shard
// error.
func transientErr(shard int, err error) error {
	return &sharding.ShardError{Shard: shard, Transient: true, Err: err}
}

func hardErr(shard int, err error) error {
	return &sharding.ShardError{Shard: shard, Transient: false, Err: err}
}

// checkout takes a connection to p for a shard-side request.
func checkout(ctx context.Context, p *pool, shard int) (*conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, err := p.get()
	if err != nil {
		// A re-dial that reaches a server with different content is a
		// misassembled cluster, not a blip: retrying cannot fix it.
		if errors.Is(err, ErrFingerprintChanged) {
			return nil, hardErr(shard, err)
		}
		return nil, transientErr(shard, err)
	}
	return c, nil
}

// shardCall runs one exchange with a shard server: the request frame,
// then reply frames until more reports the last one (nil more means a
// single reply) or the server answers with a structured error. It is
// the one place a failed exchange becomes a sharding.ShardError, the
// vocabulary the router's retry machinery reads.
func shardCall[T any](ctx context.Context, c *conn, shard int, op byte, body []byte, want byte, decode func([]byte) (T, error), more func(T) bool) (T, error) {
	var (
		zero, reply T
		er          *wire.ErrorReply
		derr        error
	)
	err := c.exchange(ctx, op, body, func(rop byte, rbody []byte) bool {
		reply, er, derr = decodeReply(c, rop, rbody, want, decode)
		return derr == nil && er == nil && more != nil && more(reply)
	})
	if err != nil {
		// A cancellation-poisoned socket reports the ctx error, not
		// the IO timeout it was induced through.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return zero, ctxErr
		}
		// A frame torn by a connection loss is transient (a retry
		// dials fresh); any other framing violation — bad length,
		// checksum mismatch — means the peer is not speaking the
		// protocol and is not worth retrying.
		if isProtocolViolation(err) {
			return zero, hardErr(shard, err)
		}
		return zero, transientErr(shard, err)
	}
	if derr != nil {
		return zero, hardErr(shard, derr)
	}
	if er != nil {
		// The server's transient/hard verdict survives the wire, and an
		// overload/draining shed carries its retry-after hint; the
		// router's retry schedule honours it as a floor.
		return zero, &sharding.ShardError{
			Shard:      int(er.Shard),
			Transient:  er.Transient,
			RetryAfter: time.Duration(er.RetryAfterNS),
			Err:        fmt.Errorf("remote: %s", er.Message),
		}
	}
	return reply, nil
}

// Query implements sharding.ShardConn. The filter and the pushed-down
// options — limit, ordering, bound, aggregate — are serialized to the shard's
// server, which streams its answer back as reply frames in the same
// exchange (an aggregate's answer is one frame with no documents).
// The ctx watchdog covers the whole exchange: a cancellation mid-stream
// discards the connection. cfg is not sent: planning configuration is
// owned by the server's own cluster (the processes are constructed
// identically, so the configs agree). The returned documents and keys
// are views of their reply frames, which nothing else holds.
func (rc *RemoteConn) Query(ctx context.Context, shard *sharding.Shard, f query.Filter, cfg *query.Config, opts query.Opts) (*query.Result, error) {
	p := rc.pools[shard.ID]
	if p == nil {
		return nil, hardErr(shard.ID, fmt.Errorf("netconn: no server for shard %d", shard.ID))
	}
	body, err := wire.Query{
		Shard:     int32(shard.ID),
		BatchSize: rc.batch,
		Limit:     int64(opts.Limit),
		OrderBy:   opts.OrderBy,
		Desc:      opts.Desc,
		Bound:     opts.Bound,
		Agg:       opts.Agg,
		Filter:    f,
	}.Encode(nil)
	if err != nil {
		return nil, hardErr(shard.ID, err)
	}
	c, err := checkout(ctx, p, shard.ID)
	if err != nil {
		return nil, err
	}
	var res *query.Result
	_, err = shardCall(ctx, c, shard.ID, wire.OpQuery, body, wire.OpQueryReply, wire.DecodeQueryReply, func(reply wire.QueryReply) bool {
		if res == nil {
			res = &query.Result{Stats: reply.Stats(), Agg: reply.Agg}
		}
		for _, doc := range reply.Docs {
			res.Docs = append(res.Docs, bson.Raw(doc))
		}
		if reply.Keys != nil {
			res.Keys = append(res.Keys, reply.Keys...)
		}
		return reply.More
	})
	p.put(c)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// InsertBatchRaw broadcasts one idempotent client batch to EVERY
// connected daemon and waits for all of them to acknowledge. Each
// daemon holds the full cluster, so identical application keeps their
// content fingerprints converged; the batch ID makes the broadcast
// safe to retry after any partial failure (daemons that already
// applied it answer dup). It implements sharding.BatchInserter, so a
// router's store can route writes through it exactly like queries. The
// encoded documents are framed as they are; nothing is re-encoded on
// the way through a router.
//
// applied/dup reflect the freshest verdict: if any daemon newly
// applied the batch the call reports that application; only when every
// daemon answers dup is the batch reported as a duplicate.
func (rc *RemoteConn) InsertBatchRaw(ctx context.Context, batchID string, docs [][]byte) (applied int, dup bool, err error) {
	if len(docs) == 0 {
		return 0, false, nil
	}
	body := wire.Insert{BatchID: batchID, Docs: docs}.Encode(nil)
	replies := make([]wire.InsertReply, len(rc.byAddr))
	errs := make([]error, len(rc.byAddr))
	var wg sync.WaitGroup
	for i, p := range rc.byAddr {
		wg.Add(1)
		go func(i int, p *pool) {
			defer wg.Done()
			replies[i], errs[i] = rc.insertOne(ctx, p, body)
		}(i, p)
	}
	wg.Wait()
	dup = true
	for i := range rc.byAddr {
		if errs[i] != nil {
			// Any daemon short of an ack fails the whole broadcast: the
			// caller retries with the same batchID and the daemons that
			// already applied it dedup.
			return 0, false, errs[i]
		}
		if !replies[i].Dup {
			dup = false
			if n := int(replies[i].Applied); n > applied {
				applied = n
			}
		}
	}
	if dup {
		return 0, true, nil
	}
	return applied, false, nil
}

// insertOne runs the insert round trip against one daemon.
func (rc *RemoteConn) insertOne(ctx context.Context, p *pool, body []byte) (wire.InsertReply, error) {
	c, err := checkout(ctx, p, -1)
	if err != nil {
		return wire.InsertReply{}, err
	}
	defer p.put(c)
	return shardCall(ctx, c, -1, wire.OpInsert, body, wire.OpInsertReply, wire.DecodeInsertReply, nil)
}
