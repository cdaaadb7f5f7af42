package main

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines waits for the goroutine count to come back to at most
// want: exiting goroutines are not instantly gone from the count.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestProxyCountsBothDirectionsAndPropagatesHalfClose(t *testing.T) {
	before := runtime.NumGoroutine()
	// The server reads its input to EOF — which it only sees if the
	// proxy passes the client's half-close on — and then answers with
	// the input twice.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serverDone := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		defer c.Close()
		in, err := io.ReadAll(c)
		if err == nil {
			_, err = c.Write(append(in, in...))
		}
		serverDone <- err
	}()
	p, err := startProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("calibre!"), 100_000) // 800 kB: many reads
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(c) // ends only when the server's close comes through
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
	ln.Close()
	p.Close()
	if !bytes.Equal(reply, append(payload, payload...)) {
		t.Fatalf("reply has %d bytes, want %d intact", len(reply), 2*len(payload))
	}
	if up, down := p.up.Load(), p.down.Load(); up != int64(len(payload)) || down != int64(len(reply)) {
		t.Fatalf("counted %d up / %d down, sent %d / received %d", up, down, len(payload), len(reply))
	}
	waitGoroutines(t, before)
}

func TestProxyCloseTearsDownOpenRelays(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	p, err := startProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	defer srv.Close()
	p.Close() // both ends still open and idle: Close must not wait for them
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("client connection still open after the proxy closed")
	}
	c.Close()
	srv.Close()
	waitGoroutines(t, before)
}
