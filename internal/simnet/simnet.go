// Package simnet models the cluster network of the paper's testbed (§6.1:
// 20 hosts on a 1 Gbps connection). Every byte that crosses a host boundary
// — global-tier state access, cross-host chaining, container data shipping
// — is charged to a link: the caller sleeps for the serialisation delay at
// the link's bandwidth plus a fixed per-operation latency, and the bytes
// are counted for the network-transfer figures (Figs 6b and 8b).
//
// The charge is paid on the experiment clock, so a vtime.Scaled clock
// reproduces second-scale transfer costs in milliseconds of wall time.
// FaultShard is the tier-side counterpart: a shard that fault injection can
// crash, fail or slow down.
package simnet

import (
	"sync"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/vtime"
)

// Network is a shared cost model for one cluster.
type Network struct {
	// BandwidthBps is per-host link bandwidth in bytes per second.
	BandwidthBps int64
	// Latency is the fixed per-operation round-trip cost.
	Latency time.Duration
	Clock   vtime.Clock

	mu sync.Mutex
	// Sent/Received aggregate bytes across the cluster.
	Sent     obsv.Counter
	Received obsv.Counter
	perHost  map[string]*HostCounters
}

// HostCounters tracks one host's transfers.
type HostCounters struct {
	Sent     obsv.Counter
	Received obsv.Counter
}

// Gigabit is the testbed's 1 Gbps in bytes/second.
const Gigabit = int64(125_000_000)

// New creates a network model. Zero bandwidth means infinitely fast links
// (costs are still counted); a nil clock uses the wall clock.
func New(bandwidthBps int64, latency time.Duration, clock vtime.Clock) *Network {
	if clock == nil {
		clock = vtime.Real{}
	}
	return &Network{
		BandwidthBps: bandwidthBps,
		Latency:      latency,
		Clock:        clock,
		perHost:      map[string]*HostCounters{},
	}
}

// Host returns (creating) the counters for a host.
func (n *Network) Host(name string) *HostCounters {
	n.mu.Lock()
	defer n.mu.Unlock()
	hc, ok := n.perHost[name]
	if !ok {
		hc = &HostCounters{}
		n.perHost[name] = hc
	}
	return hc
}

// Transfer charges a host for moving n bytes (sent and received count the
// same bytes on opposite sides; for host↔KVS traffic we charge the host
// both ways as the paper's "sent + recv" metric does).
func (n *Network) Transfer(host string, sent, received int64) {
	hc := n.Host(host)
	hc.Sent.Add(sent)
	hc.Received.Add(received)
	n.Sent.Add(sent)
	n.Received.Add(received)
	n.sleepFor(sent + received)
}

func (n *Network) sleepFor(bytes int64) {
	var d time.Duration
	if n.BandwidthBps > 0 && bytes > 0 {
		d = time.Duration(float64(bytes) / float64(n.BandwidthBps) * float64(time.Second))
	}
	d += n.Latency
	if d > 0 {
		n.Clock.Sleep(d)
	}
}

// TotalBytes reports cluster-wide sent+received bytes.
func (n *Network) TotalBytes() int64 {
	return n.Sent.Value() + n.Received.Value()
}

// HostBytes reports one host's sent+received bytes — the failure
// experiments use it to price the background control traffic (liveness
// heartbeats, lease reads) a host pays while the cluster heals.
func (n *Network) HostBytes(host string) int64 {
	hc := n.Host(host)
	return hc.Sent.Value() + hc.Received.Value()
}

// Store wraps a kvs.Store, charging every operation to the network from the
// perspective of one host — this is how global-tier access pays the
// data-shipping cost in the cluster experiments.
type Store struct {
	inner kvs.Store
	net   *Network
	host  string
}

// NewStore wraps inner with network accounting for host.
func NewStore(inner kvs.Store, net *Network, host string) *Store {
	return &Store{inner: inner, net: net, host: host}
}

// reqOverhead approximates protocol framing per operation.
const reqOverhead = 32

// Get implements kvs.Store.
func (s *Store) Get(key string) ([]byte, error) {
	v, err := s.inner.Get(key)
	s.net.Transfer(s.host, reqOverhead+int64(len(key)), int64(len(v)))
	return v, err
}

// Set implements kvs.Store.
func (s *Store) Set(key string, val []byte) error {
	err := s.inner.Set(key, val)
	s.net.Transfer(s.host, reqOverhead+int64(len(key))+int64(len(val)), reqOverhead)
	return err
}

// SetEx implements kvs.Store, charged like Set (the TTL field is part of
// the fixed per-operation framing overhead).
func (s *Store) SetEx(key string, val []byte, ttl time.Duration) error {
	err := s.inner.SetEx(key, val, ttl)
	s.net.Transfer(s.host, reqOverhead+int64(len(key))+int64(len(val)), reqOverhead)
	return err
}

// TTL implements kvs.Store.
func (s *Store) TTL(key string) (time.Duration, error) {
	d, err := s.inner.TTL(key)
	s.net.Transfer(s.host, reqOverhead+int64(len(key)), reqOverhead)
	return d, err
}

// GetRange implements kvs.Store.
func (s *Store) GetRange(key string, off, n int) ([]byte, error) {
	v, err := s.inner.GetRange(key, off, n)
	s.net.Transfer(s.host, reqOverhead+int64(len(key)), int64(len(v)))
	return v, err
}

// SetRange implements kvs.Store.
func (s *Store) SetRange(key string, off int, val []byte) error {
	err := s.inner.SetRange(key, off, val)
	s.net.Transfer(s.host, reqOverhead+int64(len(key))+int64(len(val)), reqOverhead)
	return err
}

// Append implements kvs.Store.
func (s *Store) Append(key string, val []byte) (int, error) {
	n, err := s.inner.Append(key, val)
	s.net.Transfer(s.host, reqOverhead+int64(len(key))+int64(len(val)), reqOverhead)
	return n, err
}

// Len implements kvs.Store.
func (s *Store) Len(key string) (int, error) {
	n, err := s.inner.Len(key)
	s.net.Transfer(s.host, reqOverhead+int64(len(key)), reqOverhead)
	return n, err
}

// Delete implements kvs.Store.
func (s *Store) Delete(key string) error {
	err := s.inner.Delete(key)
	s.net.Transfer(s.host, reqOverhead+int64(len(key)), reqOverhead)
	return err
}

// SAdd implements kvs.Store.
func (s *Store) SAdd(key, member string) (bool, error) {
	ok, err := s.inner.SAdd(key, member)
	s.net.Transfer(s.host, reqOverhead+int64(len(key)+len(member)), reqOverhead)
	return ok, err
}

// SRem implements kvs.Store.
func (s *Store) SRem(key, member string) (bool, error) {
	ok, err := s.inner.SRem(key, member)
	s.net.Transfer(s.host, reqOverhead+int64(len(key)+len(member)), reqOverhead)
	return ok, err
}

// SMembers implements kvs.Store.
func (s *Store) SMembers(key string) ([]string, error) {
	ms, err := s.inner.SMembers(key)
	var out int64
	for _, m := range ms {
		out += int64(len(m))
	}
	s.net.Transfer(s.host, reqOverhead+int64(len(key)), out+reqOverhead)
	return ms, err
}

// Incr implements kvs.Store.
func (s *Store) Incr(key string, delta int64) (int64, error) {
	v, err := s.inner.Incr(key, delta)
	s.net.Transfer(s.host, reqOverhead+int64(len(key)), reqOverhead)
	return v, err
}

// MGet implements kvs.Store. The whole batch is charged as one exchange —
// all keys out, all values back, a single per-operation latency — which is
// the win the wire protocol's pipelined MGET realises on a real network.
func (s *Store) MGet(keys []string) ([][]byte, error) {
	vals, err := s.inner.MGet(keys)
	sent := int64(reqOverhead)
	for _, k := range keys {
		sent += int64(len(k))
	}
	var recv int64 = reqOverhead
	for _, v := range vals {
		recv += int64(len(v))
	}
	s.net.Transfer(s.host, sent, recv)
	return vals, err
}

// MSet implements kvs.Store, charged as one exchange.
func (s *Store) MSet(pairs []kvs.Pair) error {
	err := s.inner.MSet(pairs)
	sent := int64(reqOverhead)
	for _, p := range pairs {
		sent += int64(len(p.Key) + len(p.Val))
	}
	s.net.Transfer(s.host, sent, reqOverhead)
	return err
}

// GetRangesInto implements kvs.Store, charged as one exchange.
func (s *Store) GetRangesInto(key string, ranges []kvs.Range, dst []byte) (int, error) {
	n, err := s.inner.GetRangesInto(key, ranges, dst)
	s.net.Transfer(s.host, reqOverhead+int64(len(key))+16*int64(len(ranges)), reqOverhead+int64(n))
	return n, err
}

// Lock implements kvs.Store. Only the fixed round-trip is charged; lock
// wait time is contention, not transfer.
func (s *Store) Lock(key string, write bool, ttl time.Duration) (uint64, error) {
	s.net.Transfer(s.host, reqOverhead+int64(len(key)), reqOverhead)
	return s.inner.Lock(key, write, ttl)
}

// Unlock implements kvs.Store.
func (s *Store) Unlock(key string, token uint64) error {
	s.net.Transfer(s.host, reqOverhead+int64(len(key)), reqOverhead)
	return s.inner.Unlock(key, token)
}

// AllKeys implements kvs.Store, charged like SMembers: the listing comes
// back over the network.
func (s *Store) AllKeys() ([]kvs.KeyInfo, error) {
	infos, err := s.inner.AllKeys()
	var out int64
	for _, ki := range infos {
		out += int64(len(ki.Key))
	}
	s.net.Transfer(s.host, reqOverhead, out+reqOverhead)
	return infos, err
}

var _ kvs.Store = (*Store)(nil)
