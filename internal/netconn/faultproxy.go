package netconn

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a fault-injecting TCP forwarder for one backend address:
// the network-level counterpart of sharding.FaultConn. Placed between
// a RemoteConn and a shard server it exhibits the failures only a
// real link can — added latency on the path, connections dropped
// mid-request, and streams cut mid-frame so the client reads a torn
// frame rather than a clean error.
type Proxy struct {
	target string
	ln     net.Listener

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	latency time.Duration
	// cutAfter, when armed (>= 0), cuts every currently-forwarding
	// server→client stream after that many more bytes — mid-frame for
	// any frame larger than the remainder.
	cutAfter atomic.Int64
	wg       sync.WaitGroup
}

// NewProxy listens on an ephemeral localhost port and forwards every
// connection to target.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, ln: ln, conns: map[net.Conn]struct{}{}}
	p.cutAfter.Store(-1)
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetLatency adds a delay before each client→server chunk is
// forwarded (0 disables).
func (p *Proxy) SetLatency(d time.Duration) {
	p.mu.Lock()
	p.latency = d
	p.mu.Unlock()
}

// CutAfter arms a mid-stream cut: after n more server→client bytes,
// every connection is severed. n smaller than the next frame tears
// that frame.
func (p *Proxy) CutAfter(n int64) { p.cutAfter.Store(n) }

// DropConns severs every active connection immediately (new
// connections still forward).
func (p *Proxy) DropConns() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for nc := range p.conns {
		conns = append(conns, nc)
	}
	p.mu.Unlock()
	for _, nc := range conns {
		nc.Close()
	}
}

// Close stops the proxy and severs everything.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.DropConns()
	p.wg.Wait()
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.DialTimeout("tcp", p.target, dialTimeout)
		if err != nil {
			nc.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			nc.Close()
			up.Close()
			return
		}
		p.conns[nc] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(up, nc, true)  // client → server, latency applies
		go p.pipe(nc, up, false) // server → client, cut applies
	}
}

// pipe forwards one direction chunk by chunk, applying the armed
// faults, and severs both ends when either side closes.
func (p *Proxy) pipe(dst, src net.Conn, toServer bool) {
	defer p.wg.Done()
	defer func() {
		dst.Close()
		src.Close()
		p.mu.Lock()
		delete(p.conns, dst)
		delete(p.conns, src)
		p.mu.Unlock()
	}()
	buf := make([]byte, 16<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if toServer {
				p.mu.Lock()
				d := p.latency
				p.mu.Unlock()
				if d > 0 {
					time.Sleep(d)
				}
			} else if budget := p.cutAfter.Load(); budget >= 0 {
				if int64(len(chunk)) >= budget {
					// Forward exactly the remaining budget, then sever
					// — a torn frame from the client's point of view.
					if budget > 0 {
						_, _ = dst.Write(chunk[:budget])
					}
					p.cutAfter.Store(-1)
					return
				}
				p.cutAfter.Add(int64(-len(chunk)))
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				return
			}
			return
		}
	}
}
