package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// proxy is a counting pass-through TCP proxy the traced run puts between
// the coordinator and one node. It counts the bytes that cross in each
// direction and cuts the byte stream into exchanges: the wire protocol is
// strictly one request then one response per connection, so the first
// client byte after a response starts a new exchange and the last server
// byte before that ends the previous one. Each exchange becomes a
// "node_exchange" span under whatever span the recorder names as current.
type proxy struct {
	ln      net.Listener
	backend string
	rec     *recorder

	up, down  atomic.Int64 // bytes client→node, node→client
	exchanges atomic.Int64

	mu    sync.Mutex
	conns map[*proxyConn]struct{}
	wg    sync.WaitGroup
}

type proxyConn struct {
	client, server net.Conn

	mu            sync.Mutex
	open          bool // an exchange has started and is not yet recorded
	responded     bool // the open exchange has seen response bytes
	start, last   int64
	parent, query int
}

func newProxy(backend string, rec *recorder) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{ln: ln, backend: backend, rec: rec, conns: make(map[*proxyConn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) accept() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		server, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		pc := &proxyConn{client: client, server: server}
		p.mu.Lock()
		p.conns[pc] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(pc, true)
		go p.pump(pc, false)
	}
}

// pump copies one direction of a connection until either side closes.
func (p *proxy) pump(pc *proxyConn, upstream bool) {
	defer p.wg.Done()
	src, dst := pc.server, pc.client
	if upstream {
		src, dst = pc.client, pc.server
	}
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if upstream {
				p.requestBytes(pc, n)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
			if !upstream {
				p.responseBytes(pc, n)
			}
		}
		if err != nil {
			break
		}
	}
	// Closing both ends unblocks the opposite pump.
	pc.client.Close()
	pc.server.Close()
}

func (p *proxy) requestBytes(pc *proxyConn, n int) {
	p.up.Add(int64(n))
	pc.mu.Lock()
	if pc.open && pc.responded {
		p.record(pc)
	}
	if !pc.open {
		pc.open, pc.responded = true, false
		pc.start = p.rec.now()
		pc.parent, pc.query = p.rec.currentSpan()
	}
	pc.mu.Unlock()
}

func (p *proxy) responseBytes(pc *proxyConn, n int) {
	p.down.Add(int64(n))
	pc.mu.Lock()
	pc.responded = true
	pc.last = p.rec.now()
	pc.mu.Unlock()
}

// record closes pc's open exchange; callers hold pc.mu.
func (p *proxy) record(pc *proxyConn) {
	p.exchanges.Add(1)
	p.rec.add("node_exchange", pc.parent, pc.query, pc.start, pc.last)
	pc.open = false
}

// flush records every exchange that has been answered but not yet closed by
// a following request. Call it while the connections are idle.
func (p *proxy) flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for pc := range p.conns {
		pc.mu.Lock()
		if pc.open && pc.responded {
			p.record(pc)
		}
		pc.mu.Unlock()
	}
}

// close stops accepting, closes every connection and waits for the pumps.
func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for pc := range p.conns {
		pc.client.Close()
		pc.server.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// loopbackRTT measures the median round trip, in microseconds, of a
// reqBytes-byte request answered by a respBytes-byte response over a raw
// loopback TCP connection: what any protocol moving these bytes would pay.
func loopbackRTT(reqBytes, respBytes, rounds int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		req, resp := make([]byte, reqBytes), make([]byte, respBytes)
		for {
			if _, err := io.ReadFull(c, req); err != nil {
				done <- nil // client closed
				return
			}
			if _, err := c.Write(resp); err != nil {
				done <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	req, resp := make([]byte, reqBytes), make([]byte, respBytes)
	lat := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if _, err := c.Write(req); err != nil {
			c.Close()
			return 0, err
		}
		if _, err := io.ReadFull(c, resp); err != nil {
			c.Close()
			return 0, err
		}
		lat = append(lat, time.Since(t0))
	}
	c.Close()
	if err := <-done; err != nil {
		return 0, err
	}
	return float64(metrics.Summarize(lat).P50) / 1e3, nil
}
