package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// countingProxy is a loopback TCP relay the federation's clients dial in
// place of the server, so the benchmark can count the bytes each
// direction really puts on the socket (envelope framing, gob type
// descriptors and handshakes included) without touching flnet. It
// propagates half-close, and Close returns only after every relay
// goroutine has ended.
type countingProxy struct {
	ln     net.Listener
	target string

	up, down atomic.Int64 // client→server, server→client

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func startProxy(target string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

// track registers a connection for Close; it reports false (and closes
// c) when the proxy is already shutting down.
func (p *countingProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		_ = c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *countingProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	_ = c.Close()
}

func (p *countingProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !p.track(client) {
			return
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil || !p.track(server) {
			p.untrack(client)
			continue
		}
		p.wg.Add(1)
		go p.relay(client, server)
	}
}

// relay copies both directions until each source reaches EOF, passing
// the half-close on, then closes both connections.
func (p *countingProxy) relay(client, server net.Conn) {
	defer p.wg.Done()
	var dirs sync.WaitGroup
	dirs.Add(2)
	pipe := func(dst, src net.Conn, n *atomic.Int64) {
		defer dirs.Done()
		_, _ = io.Copy(dst, countingReader{src, n}) // an error here is the peer going away
		if tc, ok := dst.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}
	go pipe(server, client, &p.up)
	go pipe(client, server, &p.down)
	dirs.Wait()
	p.untrack(client)
	p.untrack(server)
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n.Add(int64(n))
	return n, err
}

// Close stops accepting, tears down every open relay and waits for all
// proxy goroutines to end.
func (p *countingProxy) Close() {
	p.mu.Lock()
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	_ = p.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	p.wg.Wait()
}
