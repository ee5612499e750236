package main

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// echoServer answers every message with the same bytes; messages are
// length-prefixed by one byte so the server knows when one is complete.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				head := make([]byte, 1)
				for {
					if _, err := io.ReadFull(c, head); err != nil {
						return
					}
					body := make([]byte, head[0])
					if _, err := io.ReadFull(c, body); err != nil {
						return
					}
					if _, err := c.Write(append(head, body...)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln
}

func TestProxyCountsBytesAndExchanges(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	rec := newRecorder()
	p, err := newProxy(ln.Addr().String(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	c, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	parent := rec.begin("caller", -1, 3)
	rec.setCurrent(parent, 3)
	var want int64
	sizes := []int{1, 200, 17, 255, 64}
	for _, n := range sizes {
		msg := append([]byte{byte(n)}, bytes.Repeat([]byte{0xab}, n)...)
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("echo of %d bytes came back changed", n)
		}
		want += int64(len(msg))
	}
	rec.clearCurrent()
	rec.end(parent)
	p.flush()

	if up, down := p.up.Load(), p.down.Load(); up != want || down != want {
		t.Errorf("proxy counted %d bytes up and %d down, want %d each way", up, down, want)
	}
	if got := p.exchanges.Load(); got != int64(len(sizes)) {
		t.Errorf("proxy cut the stream into %d exchanges, want %d", got, len(sizes))
	}
	var exchanges int
	for _, s := range rec.snapshot() {
		if s.Name != "node_exchange" {
			continue
		}
		exchanges++
		if s.Parent != parent || s.Query != 3 || s.End < s.Start {
			t.Errorf("exchange span %+v: want parent %d, query 3, end after start", s, parent)
		}
	}
	if exchanges != len(sizes) {
		t.Errorf("%d exchange spans recorded, want %d", exchanges, len(sizes))
	}
}

func TestLoopbackRTT(t *testing.T) {
	us, err := loopbackRTT(300, 120, 50)
	if err != nil {
		t.Fatal(err)
	}
	if us <= 0 {
		t.Errorf("round trip = %v us, want positive", us)
	}
}
