package main

// The traced replay. The product carries no timers yet, so the stage
// budget is taken from outside: for each sampled operation the replay
// first makes the top-level call, then calls each layer's exported
// function on the same inputs, one after the other on one goroutine,
// recording a span per call. A child span is therefore a separate call
// made after its parent returned, not a slice of the parent's own
// execution; what the children cannot account for is reported as the
// budget's residual.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bson"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/netconn"
	"repro/internal/query"
	"repro/internal/sharding"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
)

// readReplay walks queries through the read path's layers.
type readReplay struct {
	// store plans and routes: Grid().Cover, Filter, Cluster().QueryOpts.
	store *core.Store
	// exec are the shards whose collections execute — the store's own,
	// or the backend's when the store routes over the network.
	exec []*sharding.Shard
	// client and remote are set on the network path only.
	client *netconn.Client
	remote *netconn.RemoteConn
	// agg replays Store.Aggregate and Opts.Agg executions.
	agg bool
}

// readTotals accumulates one replay's per-operation observations.
type readTotals struct {
	top, cover, filter, routed, exec, aggExec sample
	routeMerge, shardHop, routerHop           sample
	qEnc, qDec, rEnc, rDec                    sample
	coverRanges, reqBytes, replyBytes         int64
	scanNS, scanKeys, fetchNS, matchNS, docs  int64
	keys, examined, returned                  int64
	targeted, pruned, emptyVisits             int64
	residual                                  []float64
	ops                                       int
}

// execOpts is the executor's form of the query's limit, order and
// aggregate.
func execOpts(s *core.Store, q core.STQuery) query.Opts {
	o := query.Opts{Limit: q.Limit}
	if q.Sort != core.SortNone {
		o.OrderBy, o.Desc = core.FieldDate, q.Sort == core.SortDateDesc
	}
	if q.HasAgg() {
		o.Agg = aggSpec(s, q)
	}
	return o
}

// run replays the first traceOps queries and reports the read path's
// layer metrics. Each query is executed once unrecorded first, so that
// the top-level call and the stage calls that follow it all find the
// same warm caches. The top-level call is also timed bare, before or
// after the traced replay in alternating order; the difference of the
// two top-level totals prices the tracing.
func (rp readReplay) run(b *bench, t *tracer, qs []core.STQuery) {
	qs = qs[:min(traceOps, len(qs))]
	var tot readTotals
	var bare int64
	untraced := func(q core.STQuery) {
		start := time.Now()
		rp.top(q)
		bare += int64(time.Since(start))
	}
	for i, q := range qs {
		rp.top(q)
		if i%2 == 0 {
			untraced(q)
			rp.one(t, &tot, i, q)
		} else {
			rp.one(t, &tot, i, q)
			untraced(q)
		}
	}
	n := float64(tot.ops)
	b.lay("loadgen.trace_overhead_pct", 100*ratio(float64(tot.top.sum()-bare), float64(bare)), "%")
	b.lay("sfc.cover_us", tot.cover.us(50), "us")
	b.lay("sfc.cover_ranges", float64(tot.coverRanges)/n, "count")
	b.lay("core.filter_us", tot.filter.us(50), "us")
	b.lay("sharding.query_us", tot.routed.us(50), "us")
	b.lay("sharding.route_merge_us", tot.routeMerge.us(50), "us")
	b.lay("sharding.shards_targeted_per_op", float64(tot.targeted)/n, "count")
	b.lay("sharding.shards_pruned_per_op", float64(tot.pruned)/n, "count")
	b.lay("sharding.empty_visit_ratio", ratio(float64(tot.emptyVisits), float64(tot.targeted)), "ratio")
	b.lay("query.exec_us", tot.exec.us(50), "us")
	b.lay("query.agg_exec_us", tot.aggExec.us(50), "us")
	b.lay("query.keys_per_returned", ratio(float64(tot.keys), float64(tot.returned)), "ratio")
	b.lay("query.docs_per_returned", ratio(float64(tot.examined), float64(tot.returned)), "ratio")
	b.lay("btree.scan_ns_per_key", ratio(float64(tot.scanNS), float64(tot.scanKeys)), "ns")
	b.lay("storage.fetch_ns_per_doc", ratio(float64(tot.fetchNS), float64(tot.docs)), "ns")
	b.lay("bson.match_ns_per_doc", ratio(float64(tot.matchNS), float64(tot.docs)), "ns")
	b.lay("wire.request_bytes_per_op", float64(tot.reqBytes)/n, "B")
	b.lay("wire.reply_bytes_per_op", float64(tot.replyBytes)/n, "B")
	b.lay("wire.query_encode_us", tot.qEnc.us(50), "us")
	b.lay("wire.query_decode_us", tot.qDec.us(50), "us")
	b.lay("wire.reply_encode_us", tot.rEnc.us(50), "us")
	b.lay("wire.reply_decode_us", tot.rDec.us(50), "us")
	b.lay("netconn.shard_hop_overhead_us", tot.shardHop.us(50), "us")
	b.lay("netconn.router_hop_overhead_us", tot.routerHop.us(50), "us")
	b.lay("budget.residual_pct", 100*medianF(tot.residual), "%")
}

// topName names the top-level span.
func (rp readReplay) topName() string {
	switch {
	case rp.client != nil:
		return "netconn.Client.Query"
	case rp.agg:
		return "core.Store.Aggregate"
	}
	return "core.Store.Query"
}

// top makes the workload's top-level call for q.
func (rp readReplay) top(q core.STQuery) {
	switch {
	case rp.client != nil:
		_, _ = rp.client.Query(q)
	case rp.agg:
		_, _ = rp.store.Aggregate(q)
	default:
		rp.store.Query(q)
	}
}

// one replays a single query.
func (rp readReplay) one(t *tracer, tot *readTotals, op int, q core.STQuery) {
	s := rp.store
	cluster := s.Cluster()
	cfg := cluster.Options().QueryConfig
	opts := execOpts(s, q)
	tot.ops++

	// Top level: what a caller of this workload calls.
	topNS, top := t.timed(op, rp.topName(), -1, func() { rp.top(q) })
	tot.top = append(tot.top, topNS)
	if rp.client != nil {
		storeNS, _ := t.timed(op, "core.Store.Query", top, func() { s.Query(q) })
		tot.routerHop = append(tot.routerHop, topNS-storeNS)
	}

	// Planning on the router: the curve cover, then the filter around it.
	var ranges int
	var f query.Filter
	filterNS, fi := t.timed(op, "core.Store.Filter", top, func() { f, _, _ = s.Filter(q) })
	coverNS, _ := t.timed(op, "sfc.Grid.Cover", fi, func() { ranges = len(s.Grid().Cover(q.Rect)) })
	tot.cover = append(tot.cover, coverNS)
	tot.coverRanges += int64(ranges)
	tot.filter = append(tot.filter, max(filterNS-coverNS, 0))

	// Routing, scatter and merge.
	var routed *sharding.RoutedResult
	routedNS, ri := t.timed(op, "sharding.Cluster.QueryOpts", top, func() { routed = cluster.QueryOpts(f, opts) })
	tot.routed = append(tot.routed, routedNS)
	// What the top-level call spent that its stages, called on their
	// own, do not add up to.
	tot.residual = append(tot.residual, ratio(float64(topNS-filterNS-routedNS), float64(topNS)))
	tot.targeted += int64(routed.ShardsTargeted)
	tot.pruned += int64(routed.ShardsPruned)
	for _, st := range routed.PerShard {
		if st.NReturned == 0 && !opts.Agg.Active() {
			tot.emptyVisits++
		}
	}

	// Per-shard execution and, under it, the index, storage and
	// matching work it is made of.
	var execNS, hopNS int64
	for _, id := range routed.TargetedShards {
		shard := rp.exec[id]
		coll := shard.Coll
		var res *query.Result
		ns, ei := t.timed(op, "query.ExecuteOpts", ri, func() { res = query.ExecuteOpts(coll, f, cfg, opts) })
		execNS += ns
		tot.keys += int64(res.Stats.KeysExamined)
		tot.examined += int64(res.Stats.DocsExamined)
		tot.returned += int64(res.Stats.NReturned)
		if rp.remote != nil {
			remoteNS, _ := t.timed(op, "netconn.RemoteConn.Query", ri, func() {
				_, _ = rp.remote.Query(context.Background(), shard, f, cfg, opts)
			})
			hopNS += remoteNS - ns
		}

		// The plan names the index intervals the execution scans and the
		// residual predicate it refines fetched documents with.
		plan, _ := query.ChoosePlan(coll, f, cfg)
		if plan.Index != nil {
			ns, _ := t.timed(op, "index.Index.ScanInterval", ei, func() {
				for _, seg := range plan.Segments {
					tot.scanKeys += int64(plan.Index.ScanInterval(seg.Interval, func([]byte, storage.RecordID) bool { return true }))
				}
			})
			tot.scanNS += ns
		}
		ids := query.MatchingRecords(coll, f, cfg)
		raws := make([][]byte, 0, len(ids))
		ns, _ = t.timed(op, "storage.Store.FetchRaw", ei, func() {
			for _, id := range ids {
				if raw, ok := coll.Store().FetchRaw(id); ok {
					raws = append(raws, raw)
				}
			}
		})
		tot.fetchNS += ns
		tot.docs += int64(len(raws))
		refine := plan.Filter
		if refine == nil {
			refine = f
		}
		ns, _ = t.timed(op, "query.Filter.Matches", ei, func() {
			for _, raw := range raws {
				refine.Matches(bson.Raw(raw))
			}
		})
		tot.matchNS += ns
	}
	if opts.Agg.Active() {
		tot.aggExec = append(tot.aggExec, execNS)
	} else {
		tot.exec = append(tot.exec, execNS)
	}
	tot.routeMerge = append(tot.routeMerge, max(routedNS-execNS, 0))
	if rp.remote != nil {
		tot.shardHop = append(tot.shardHop, hopNS)
	}

	// The wire codec on the real filter and the real result documents.
	msg := wire.Query{BatchSize: netconn.DefaultBatchSize, Limit: int64(opts.Limit), OrderBy: opts.OrderBy, Desc: opts.Desc, Filter: f}
	var body []byte
	ns, _ := t.timed(op, "wire.Query.Encode", -1, func() { body, _ = msg.Encode(nil) })
	tot.qEnc = append(tot.qEnc, ns)
	tot.reqBytes += int64(len(body))
	ns, _ = t.timed(op, "wire.DecodeQuery", -1, func() { _, _ = wire.DecodeQuery(body) })
	tot.qDec = append(tot.qDec, ns)
	reply := wire.QueryReply{NReturned: int64(len(routed.Docs)), Docs: make([][]byte, len(routed.Docs))}
	for i, d := range routed.Docs {
		reply.Docs[i] = d
	}
	ns, _ = t.timed(op, "wire.QueryReply.Encode", -1, func() { body = reply.Encode(nil) })
	tot.rEnc = append(tot.rEnc, ns)
	tot.replyBytes += int64(len(body))
	ns, _ = t.timed(op, "wire.DecodeQueryReply", -1, func() { _, _ = wire.DecodeQueryReply(body) })
	tot.rDec = append(tot.rDec, ns)
}

// liveIndexMetrics reports the memory shape of the loaded store's
// shard-key indexes and record stores.
func liveIndexMetrics(b *bench, s *core.Store) {
	var keys, keyBytes, docs, docBytes int64
	for _, sh := range s.Cluster().Shards() {
		if ix := sh.Coll.Index(sharding.ShardKeyIndexName); ix != nil {
			keys += int64(ix.Len())
			keyBytes += ix.SizeEstimate()
		}
		docs += int64(sh.Coll.Store().Len())
		docBytes += sh.Coll.Store().Bytes()
	}
	b.lay("btree.bytes_per_key", ratio(float64(keyBytes), float64(keys)), "B")
	b.lay("storage.bytes_per_doc", ratio(float64(docBytes), float64(docs)), "B")
}

// writeReplay walks batches of recs through the write path's layers:
// document encoding, marshalling, the index tree, a direct
// Cluster.InsertBatch on a scratch durable store, and a bare journal
// append + commit of a batch-sized record.
func writeReplay(b *bench, t *tracer, recs []core.Record, batchDocs int) error {
	dir, err := b.tempDir("scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := storeConfig()
	cfg.Dir = filepath.Join(dir, "store")
	s, err := core.Open(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	journal, err := wal.OpenJournal(wal.NewOSFS(dir), "scratch.wal", wal.JournalOptions{})
	if err != nil {
		return err
	}
	defer journal.Close()
	ix, err := index.New(index.Definition{Name: sharding.ShardKeyIndexName, Fields: []index.Field{
		{Name: core.FieldHilbert, Kind: index.Ascending},
		{Name: core.FieldDate, Kind: index.Ascending},
	}})
	if err != nil {
		return err
	}
	tree := btree.NewTree(0)

	var encode, marshal, insert, batch, commit []float64
	batches := min(traceBatches, len(recs)/batchDocs)
	for k := 0; k < batches; k++ {
		part := recs[k*batchDocs : (k+1)*batchDocs]
		docs := make([]*bson.Document, len(part))
		per := float64(len(part))
		ns, _ := t.timed(k, "core.Store.Document", -1, func() {
			for i := range part {
				docs[i], err = s.Document(part[i])
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		encode = append(encode, float64(ns)/per/1e3)

		var bytes int
		ns, _ = t.timed(k, "bson.Marshal", -1, func() {
			for _, d := range docs {
				bytes += len(bson.Marshal(d))
			}
		})
		marshal = append(marshal, float64(ns)/per)

		keys := make([][]byte, len(docs))
		for i, d := range docs {
			if keys[i], err = ix.EntryKey(d, storage.RecordID(k*batchDocs+i)); err != nil {
				return err
			}
		}
		ns, _ = t.timed(k, "btree.Tree.Set", -1, func() {
			for i, key := range keys {
				tree.Set(key, uint64(k*batchDocs+i))
			}
		})
		insert = append(insert, float64(ns)/per)

		ns, _ = t.timed(k, "sharding.Cluster.InsertBatch", -1, func() {
			_, _, err = s.Cluster().InsertBatch(fmt.Sprintf("r%05d", k), docs)
		})
		if err != nil {
			return err
		}
		batch = append(batch, float64(ns)/1e3)

		rec := wal.Record{LSN: uint64(k + 1), Op: 1, Body: make([]byte, bytes)}
		ns, _ = t.timed(k, "wal.Journal.Append+Commit", -1, func() {
			journal.Append(rec)
			err = journal.Commit()
		})
		if err != nil {
			return err
		}
		commit = append(commit, float64(ns)/1e3)
	}
	b.lay("core.encode_doc_us", medianF(encode), "us")
	b.lay("bson.marshal_ns_per_doc", medianF(marshal), "ns")
	b.lay("btree.insert_ns_per_key", medianF(insert), "ns")
	b.lay("btree.height", float64(tree.Height()), "count")
	b.lay("sharding.insert_batch_us", medianF(batch), "us")
	b.lay("wal.append_commit_us", medianF(commit), "us")
	return nil
}

// writeTrace writes the spans of a traced run.
func writeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s, self[i]}
	}
	blob, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
