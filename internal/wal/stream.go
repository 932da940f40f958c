package wal

import "sync"

// Log is a bounded, in-memory record log with subscriptions — the
// shipping channel between a shard primary and its followers. The
// primary appends the same logical-op records it frames into the
// journal; each follower holds a Sub and applies records in LSN
// order. A follower that falls behind its channel buffer is cut off
// (its channel closes) and re-attaches with SubscribeFrom, replaying
// the tail it missed from the log's retained window — the anti-entropy
// path. A follower that falls behind the retained window itself must
// resync from a full copy of the primary.
//
// Records must arrive with strictly consecutive LSNs; the log trims
// its head once it exceeds the configured capacity.
type Log struct {
	mu     sync.Mutex
	recs   []Record // consecutive LSNs, recs[0] is the oldest retained
	last   uint64   // last appended LSN; 0 before the first append
	cap    int
	subs   map[*Sub]struct{}
	closed bool
}

// DefaultLogCapacity bounds the retained record window of a Log.
const DefaultLogCapacity = 8192

// NewLog creates a log retaining at most capacity records (<=0 means
// DefaultLogCapacity).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultLogCapacity
	}
	return &Log{cap: capacity, subs: map[*Sub]struct{}{}}
}

// Sub is one subscriber's attachment: records arrive on C in LSN
// order. A closed C signals either Unsubscribe or overflow — the
// subscriber drains what is buffered, then re-attaches with
// SubscribeFrom(applied+1).
type Sub struct {
	C chan Record

	closed bool // guarded by the owning Log's mu
}

// Append adds the record and delivers it to every subscriber. The
// record's LSN must extend the log consecutively; a gap is a caller
// bug and panics. A subscriber whose channel is full overflows: its
// channel closes so it re-attaches via SubscribeFrom.
func (l *Log) Append(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if l.last != 0 && rec.LSN != l.last+1 {
		panic("wal: Log.Append LSN gap")
	}
	l.last = rec.LSN
	l.recs = append(l.recs, rec)
	if len(l.recs) > l.cap {
		l.recs = append(l.recs[:0:0], l.recs[len(l.recs)-l.cap:]...)
	}
	for s := range l.subs {
		if s.closed {
			continue
		}
		select {
		case s.C <- rec:
		default:
			// Overflow: cut the subscriber off so it catches up from
			// the retained window instead of receiving out of order.
			s.closed = true
			close(s.C)
			delete(l.subs, s)
		}
	}
}

// LastLSN returns the last appended LSN (0 when nothing was appended).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// From returns copies of the retained records with LSN >= lsn. ok is
// false when records below the retained window were requested — the
// caller missed more than the log keeps and must resync fully.
func (l *Log) From(lsn uint64) ([]Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fromLocked(lsn)
}

func (l *Log) fromLocked(lsn uint64) ([]Record, bool) {
	if lsn > l.last {
		return nil, true
	}
	if len(l.recs) == 0 || lsn < l.recs[0].LSN {
		return nil, false
	}
	tail := l.recs[lsn-l.recs[0].LSN:]
	return append([]Record(nil), tail...), true
}

// SubscribeFrom atomically returns the retained backlog starting at
// lsn and a subscription delivering everything after it, so no record
// is lost or duplicated between the two. ok is false when lsn has
// fallen out of the retained window (full resync required).
func (l *Log) SubscribeFrom(lsn uint64, buffer int) ([]Record, *Sub, bool) {
	if buffer <= 0 {
		buffer = 256
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, false
	}
	backlog, ok := l.fromLocked(lsn)
	if !ok {
		return nil, nil, false
	}
	s := &Sub{C: make(chan Record, buffer)}
	l.subs[s] = struct{}{}
	return backlog, s, true
}

// Unsubscribe detaches the subscription and closes its channel.
func (l *Log) Unsubscribe(s *Sub) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s == nil || s.closed {
		return
	}
	s.closed = true
	close(s.C)
	delete(l.subs, s)
}

// Close detaches every subscriber and stops accepting appends.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for s := range l.subs {
		s.closed = true
		close(s.C)
		delete(l.subs, s)
	}
}
