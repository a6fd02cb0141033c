package kvs

// Store-contract semantics live in the shared conformance suite
// (internal/kvs/kvstest), run against the engine, the TCP client and the
// sharded ring from conformance_test.go. This file keeps the tests that
// reach into engine or protocol internals.

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestLockLeaseExpiry(t *testing.T) {
	e := NewEngine()
	if _, err := e.Lock("key", true, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Do not unlock: the lease must expire and admit the next writer.
	done := make(chan struct{})
	go func() {
		tok, err := e.Lock("key", true, time.Second)
		if err == nil {
			e.Unlock("key", tok)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("lease never expired")
	}
}

func TestUnlockUnknownTokenIsNoop(t *testing.T) {
	e := NewEngine()
	if err := e.Unlock("nokey", 99); err != nil {
		t.Fatal(err)
	}
	tok, _ := e.Lock("k", true, time.Second)
	if err := e.Unlock("k", tok+1); err != nil {
		t.Fatal(err)
	}
	// Real holder still holds: a second writer must block.
	got := make(chan struct{})
	go func() {
		t2, _ := e.Lock("k", true, time.Second)
		e.Unlock("k", t2)
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("stale unlock released the lock")
	case <-time.After(30 * time.Millisecond):
	}
	e.Unlock("k", tok)
	<-got
}

func TestClientByteAccounting(t *testing.T) {
	srv, err := NewServer(NewEngine(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()
	payload := make([]byte, 10_000)
	if err := c.Set("big", payload); err != nil {
		t.Fatal(err)
	}
	if c.Sent.Value() < 10_000 {
		t.Fatalf("sent bytes %d < payload", c.Sent.Value())
	}
	if _, err := c.Get("big"); err != nil {
		t.Fatal(err)
	}
	if c.Received.Value() < 10_000 {
		t.Fatalf("received bytes %d < payload", c.Received.Value())
	}
}

func TestEngineTotalBytesAndKeys(t *testing.T) {
	e := NewEngine()
	e.Set("a", make([]byte, 100))
	e.Set("b", make([]byte, 50))
	if e.TotalBytes() != 150 {
		t.Fatalf("total = %d", e.TotalBytes())
	}
	keys := e.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestAllKeysEnumeration(t *testing.T) {
	check := func(t *testing.T, s Store) {
		s.Set("v1", []byte("x"))
		s.SAdd("s1", "m")
		s.Incr("i1", 7)
		infos, err := s.AllKeys()
		if err != nil {
			t.Fatal(err)
		}
		want := []KeyInfo{{KindValue, "v1"}, {KindSet, "s1"}, {KindCounter, "i1"}}
		if len(infos) != len(want) {
			t.Fatalf("infos = %v", infos)
		}
		seen := map[KeyInfo]bool{}
		for _, ki := range infos {
			seen[ki] = true
		}
		for _, w := range want {
			if !seen[w] {
				t.Fatalf("missing %v in %v", w, infos)
			}
		}
	}
	t.Run("engine", func(t *testing.T) { check(t, NewEngine()) })
	t.Run("tcp", func(t *testing.T) {
		srv, err := NewServer(NewEngine(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := NewClient(srv.Addr())
		defer c.Close()
		check(t, c)
	})
}

func TestSplitFieldsQuoting(t *testing.T) {
	f := func(key string) bool {
		line := fmt.Sprintf("GET %s", quoteField(key))
		fields, err := splitFields(line)
		return err == nil && len(fields) == 2 && fields[1] == key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func quoteField(s string) string {
	return fmt.Sprintf("%q", s)
}

// Property: engine range writes agree with a reference byte-slice model.
func TestPropertyRangeModel(t *testing.T) {
	e := NewEngine()
	model := []byte{}
	f := func(off uint16, data []byte) bool {
		o := int(off) % 4096
		if err := e.SetRange("m", o, data); err != nil {
			return false
		}
		if need := o + len(data); need > len(model) {
			grown := make([]byte, need)
			copy(grown, model)
			model = grown
		}
		copy(model[o:], data)
		got, err := e.Get("m")
		return err == nil && bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineSetGet(b *testing.B) {
	e := NewEngine()
	val := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Set("k", val)
		e.Get("k")
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	srv, err := NewServer(NewEngine(), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()
	val := make([]byte, 1024)
	c.Set("k", val)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get("k"); err != nil {
			b.Fatal(err)
		}
	}
}
