package sched

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/vtime"
)

// Placement says where a call should run.
type Placement int

// Placements.
const (
	// PlaceLocalWarm executes on this host using a warm Faaslet.
	PlaceLocalWarm Placement = iota
	// PlaceForward shares the call with another warm host.
	PlaceForward
	// PlaceLocalCold cold-starts a Faaslet on this host.
	PlaceLocalCold
)

func (p Placement) String() string {
	switch p {
	case PlaceLocalWarm:
		return "local-warm"
	case PlaceForward:
		return "forward"
	case PlaceLocalCold:
		return "local-cold"
	}
	return "unknown"
}

// Decision is one scheduling outcome.
type Decision struct {
	Placement Placement
	// TargetHost is the peer to share with when Placement == PlaceForward.
	TargetHost string

	// LocalityFrac is the chosen peer's advertised resident bytes as a
	// fraction of the function's state footprint (0 when locality scoring
	// is off or the function has no data gravity anywhere).
	LocalityFrac float64
	// BestResidentHost is the peer advertising the most resident bytes for
	// the function — it differs from TargetHost when latency×load outweighed
	// locality. Empty when no blended ranking ran.
	BestResidentHost string
	// SavedBytes is the state bytes the forward avoids re-pulling by landing
	// on TargetHost (its advertised residency, clipped to the footprint).
	SavedBytes int64
}

// hostsKey is the global-tier set naming the hosts that write leases. A
// beat reads it to find its peers' lease records; a beat whose lease lists
// a function adds its host when the set lacks it, and any peer that finds a
// member's lease gone removes the member.
const hostsKey = "sched/hosts"

// aliveKey is the global-tier key holding a host's lease: the liveness
// marker, then one "<fn> <resident bytes>" line per function the host
// advertises as warm. It is written with SetEx, so the tier itself expires
// it on its own clock. A host whose record has vanished is dead to peers;
// no writer or observer clock ever enters the judgement.
func aliveKey(host string) string { return "sched/alive/" + host }

// leaseMark is the lease record's payload. Deliberately non-numeric: the
// previous release stored a writer-clock expiry stamp (decimal unix nanos)
// here, and nothing must ever mistake the new marker for one.
var leaseMark = []byte("up")

// DefaultLeaseTTL is how long a host's warm advertisements outlive its last
// heartbeat. The heartbeat loop beats every LeaseTTL/3, so a healthy host
// misses two beats before anyone doubts it; a crashed host leaves every
// peer's view within one lease TTL plus one beat.
const DefaultLeaseTTL = 10 * time.Second

// Stats counts scheduling decisions per placement, for the evaluation.
type Stats struct {
	LocalWarm atomic.Int64
	Forwarded atomic.Int64
	ColdStart atomic.Int64

	// LocalityHits counts blended forwards that landed on a peer advertising
	// resident state for the function; LocalityMisses counts blended forwards
	// that had to land on a data-free peer. LocalitySavedBytes accumulates
	// the state bytes those hits avoided re-pulling.
	LocalityHits       atomic.Int64
	LocalityMisses     atomic.Int64
	LocalitySavedBytes atomic.Int64
}

// fnState is the per-function scheduler state: the local idle-warm counter
// and whether this host advertises itself as warm for the function.
type fnState struct {
	// idle counts this host's idle warm Faaslets (including Faaslets whose
	// post-call reset is still in flight — they are committed to the pool).
	idle atomic.Int64
	// advertised says this host is warm for the function; the next beat
	// lists it on the lease.
	advertised atomic.Bool
}

// peer is one warm host in the view: its name and the state bytes it
// advertised as resident for the function.
type peer struct {
	host     string
	resident int64
}

// view maps a function to the peers whose live leases list it (never this
// host). Each beat builds a new one; a published view is never modified.
type view map[string][]peer

// peerStat is this scheduler's view of one forwarding target: an EWMA of
// observed round-trip latency and the number of forwards in flight to it.
type peerStat struct {
	// inflight counts forwards currently executing on the peer.
	inflight atomic.Int64
	// ewmaNanos is the smoothed forward latency; 0 means never probed.
	ewmaNanos atomic.Int64
}

// ewmaShift is the EWMA smoothing factor as a power of two: each sample
// moves the estimate 1/4 of the way to itself.
const ewmaShift = 2

// failurePenalty multiplies a peer's latency estimate when a forward to it
// fails, sinking it in the weighted ranking until successes pull it back.
const failurePenalty = 8

// minFailureBase is the floor the failure penalty multiplies when a forward
// fails faster than this (a connection refused returns in microseconds —
// without the floor, a fast failure would hand a dead peer the best score
// in the cluster).
const minFailureBase = int64(time.Millisecond)

// maxEwmaNanos caps the latency estimate so repeated failure penalties
// saturate instead of overflowing int64 (an overflow would wrap negative
// and clamp back to 1, scoring a persistently failing peer best again).
const maxEwmaNanos = int64(time.Hour)

// Scheduler is one host's local scheduler.
type Scheduler struct {
	host     string
	store    kvs.Store
	capacity int64
	clock    vtime.Clock

	// LeaseTTL is this host's liveness lease duration: each heartbeat
	// re-arms the tier-side expiry for this long. Peers never judge the
	// lease themselves — the tier hides it once it expires on the tier's
	// clock. Set before first use; zero means DefaultLeaseTTL.
	LeaseTTL time.Duration

	// LocalityWeight blends data locality into peer ranking: a candidate's
	// latency×load score is scaled by (1 + LocalityWeight×miss), where miss
	// is the fraction of the function's state footprint the candidate does
	// NOT advertise as locally resident. 0 (the default) disables the blend
	// entirely — ranking is exactly the historical latency×load, and
	// stateless functions take that path even when the weight is set. Set
	// before first use.
	LocalityWeight float64

	// residency (advert side) reports this host's locally resident state
	// bytes for a function it advertises as warm; footprint (scoring side)
	// reports a function's profiled state footprint on this host. Both are
	// optional and set before first use via the Set*Provider methods.
	residency func(fn string) int64
	footprint func(fn string) int64

	// fns maps function name → *fnState.
	fns sync.Map
	// inflight counts executing calls on this host.
	inflight atomic.Int64
	// rr round-robins forwarding across unprobed peers.
	rr atomic.Uint64
	// peerStats maps host → *peerStat (latency/load across all functions).
	peerStats sync.Map

	// draining marks the scheduler's drain mode (see Drain): the host has
	// stopped advertising and heartbeating, prefers forwarding over local
	// execution, and refuses to re-enter the warm set.
	draining atomic.Bool

	// peers is the view the last beat built; a cold miss reads it and
	// nothing else.
	peers atomic.Pointer[view]
	// beatMu orders beats against each other and against Drain's lease
	// removal. listed, guarded by it, says the last lease written listed a
	// function, so the beat after the last retreat still writes one.
	beatMu sync.Mutex
	listed bool
	// lastBeat is the unix-nano instant of the last lease write, 0 if never.
	lastBeat atomic.Int64
	// hbStop ends the heartbeat loop; hbMu orders Start/Stop.
	hbMu      sync.Mutex
	hbStop    chan struct{}
	hbStopped atomic.Bool

	// Stats counts decisions made, per placement, for the evaluation.
	Stats Stats
}

// New creates a scheduler for host with the given concurrent-execution
// capacity (0 means effectively unlimited).
func New(host string, store kvs.Store, capacity int) *Scheduler {
	if capacity <= 0 {
		capacity = 1 << 30
	}
	return &Scheduler{host: host, store: store, capacity: int64(capacity), clock: vtime.Real{}}
}

// SetClock replaces the clock driving the heartbeat cadence (the runtime
// passes its own, so simulated clusters beat in simulated time). Liveness itself is judged on the global tier's clock,
// never this one. Call before use.
func (s *Scheduler) SetClock(c vtime.Clock) {
	if c != nil {
		s.clock = c
	}
}

// SetResidencyProvider installs the callback that reports this host's
// locally resident state bytes for an advertised function. Each lease lists
// every advertised function with these bytes, so peers learn residency from
// the same lease read that tells them who is warm. Call before
// StartHeartbeat.
func (s *Scheduler) SetResidencyProvider(f func(fn string) int64) { s.residency = f }

// SetFootprintProvider installs the callback that reports a function's
// state footprint (decayed profile of bytes its executions pull) used on
// the scoring side of the locality blend. Call before the first Schedule.
func (s *Scheduler) SetFootprintProvider(f func(fn string) int64) { s.footprint = f }

func (s *Scheduler) fn(name string) *fnState {
	if e, ok := s.fns.Load(name); ok {
		return e.(*fnState)
	}
	e, _ := s.fns.LoadOrStore(name, &fnState{})
	return e.(*fnState)
}

func (s *Scheduler) peerStat(host string) *peerStat {
	if e, ok := s.peerStats.Load(host); ok {
		return e.(*peerStat)
	}
	e, _ := s.peerStats.LoadOrStore(host, &peerStat{})
	return e.(*peerStat)
}

func (s *Scheduler) leaseTTL() time.Duration {
	if s.LeaseTTL > 0 {
		return s.LeaseTTL
	}
	return DefaultLeaseTTL
}

// Instrument registers the scheduler's decision counters and liveness
// signals with reg, labelled by host. Everything is bridged from existing
// atomics at scrape time — nothing is added to the scheduling hot path.
func (s *Scheduler) Instrument(reg *obsv.Registry, host string) {
	place := func(p string) map[string]string {
		return map[string]string{"host": host, "placement": p}
	}
	reg.CounterFunc("faasm_sched_decisions_total", "scheduling decisions by placement", place("local_warm"), s.Stats.LocalWarm.Load)
	reg.CounterFunc("faasm_sched_decisions_total", "scheduling decisions by placement", place("forward"), s.Stats.Forwarded.Load)
	reg.CounterFunc("faasm_sched_decisions_total", "scheduling decisions by placement", place("local_cold"), s.Stats.ColdStart.Load)
	l := map[string]string{"host": host}
	reg.CounterFunc("faasm_sched_locality_hits_total", "blended forwards landed on a peer with resident state", l, s.Stats.LocalityHits.Load)
	reg.CounterFunc("faasm_sched_locality_misses_total", "blended forwards landed on a data-free peer", l, s.Stats.LocalityMisses.Load)
	reg.CounterFunc("faasm_sched_locality_saved_bytes_total", "state bytes locality hits avoided re-pulling", l, s.Stats.LocalitySavedBytes.Load)
	reg.GaugeFunc("faasm_sched_inflight", "calls executing on this host", l, func() int64 { return int64(s.Inflight()) })
	reg.GaugeFunc("faasm_sched_last_heartbeat_seconds", "unix time of the last liveness lease write", l, func() int64 {
		return s.lastBeat.Load() / int64(time.Second)
	})
}

// Schedule decides where a call to fn should run. It takes no lock and
// touches no global state: the warm local path reads atomics, and a miss
// reads the view the last beat built. The error is always nil.
func (s *Scheduler) Schedule(fn string) (Decision, error) {
	e := s.fn(fn)
	warmHere := e.idle.Load() > 0
	draining := s.draining.Load()
	if warmHere && !draining && s.inflight.Load() < s.capacity {
		s.Stats.LocalWarm.Add(1)
		return Decision{Placement: PlaceLocalWarm}, nil
	}

	// Consult the view for another warm host.
	var peers []peer
	if v := s.peers.Load(); v != nil {
		peers = (*v)[fn]
	}
	if len(peers) > 0 {
		// Share with a warm peer: lowest load-adjusted latency first,
		// blended with data locality when the function has state gravity.
		target, lp := s.pickPeer(fn, peers)
		s.Stats.Forwarded.Add(1)
		if lp.scored {
			if lp.saved > 0 {
				s.Stats.LocalityHits.Add(1)
				s.Stats.LocalitySavedBytes.Add(lp.saved)
			} else {
				s.Stats.LocalityMisses.Add(1)
			}
		}
		return Decision{
			Placement:        PlaceForward,
			TargetHost:       target,
			LocalityFrac:     lp.frac,
			BestResidentHost: lp.best,
			SavedBytes:       lp.saved,
		}, nil
	}

	if warmHere {
		// Warm but at capacity with nowhere to share: still run locally
		// (queueing), matching the paper's behaviour under saturation. A
		// draining host takes this path too when it is the only one left
		// warm — executing is always preferred over failing the call.
		s.Stats.LocalWarm.Add(1)
		return Decision{Placement: PlaceLocalWarm}, nil
	}

	if draining {
		// No warm peer to hand the call to: execute it here, cold, but do
		// not advertise — a draining host never re-attracts traffic.
		s.Stats.ColdStart.Add(1)
		return Decision{Placement: PlaceLocalCold}, nil
	}

	// Cold start here and advertise this host as warm for fn. The advert is
	// local; the next beat's lease lists it.
	s.advertise(e)
	s.Stats.ColdStart.Add(1)
	return Decision{Placement: PlaceLocalCold}, nil
}

// advertise performs the not-advertised → advertised transition. It writes
// nothing to the tier: the next Heartbeat lists the function on the lease.
// A draining host must never (re-)enter the warm set — its lease is gone and
// peers are routing around it — so the transition is skipped while the pool
// winds down.
func (s *Scheduler) advertise(e *fnState) {
	if !e.advertised.Load() && !s.draining.Load() {
		e.advertised.Store(true)
	}
}

// localityPick describes the data-gravity side of one forwarding choice.
type localityPick struct {
	// scored is true when the blended ranking ran: the weight is on and the
	// function has state gravity somewhere (a local footprint or a peer
	// advert).
	scored bool
	// saved is the chosen peer's advertised resident bytes clipped to the
	// footprint; frac is saved/footprint.
	saved int64
	frac  float64
	// best is the peer advertising the most resident bytes — it may differ
	// from the chosen one when latency×load outweighed locality.
	best string
}

// pickPeer chooses a forwarding target for fn among peers, given the
// residency they advertised. With LocalityWeight off — or for a function
// with no state gravity anywhere — it is the historical locality-blind
// ranking (pickPeerByLatency). Otherwise every candidate is scored
//
//	score(h) = base(h) × (1 + LocalityWeight × miss(h))
//	base(h)  = ewma(h) × (1 + inflight(h))
//	miss(h)  = 1 − min(resident(h), footprint) / footprint
//
// and the lowest score wins: a peer holding the function's hot keys beats
// an equally loaded data-free one, while a large enough latency or load gap
// can still overrule locality. The footprint is this host's decayed access
// profile for fn, or — when this host has never run fn, the common case on
// a pure forwarder — the largest residency any peer advertises (the advert
// itself proves the function is stateful). Unprobed peers take the mean
// probed latency as a neutral base rather than ranking first: exploration
// must not drag a stateful function onto a data-free peer just because that
// peer has never been measured.
func (s *Scheduler) pickPeer(fn string, peers []peer) (string, localityPick) {
	var fp int64
	if s.LocalityWeight > 0 {
		if s.footprint != nil {
			fp = s.footprint(fn)
		}
		for _, p := range peers {
			fp = max(fp, p.resident)
		}
	}
	if s.LocalityWeight <= 0 || fp <= 0 {
		return s.pickPeerByLatency(peers), localityPick{}
	}

	var probedSum, probedN int64
	for _, p := range peers {
		if e := s.peerStat(p.host).ewmaNanos.Load(); e > 0 {
			probedSum += e
			probedN++
		}
	}
	neutral := int64(1)
	if probedN > 0 {
		neutral = probedSum / probedN
	}
	pick := localityPick{scored: true}
	best := peers[0]
	bestScore := -1.0
	var bestResident int64
	for _, p := range peers {
		st := s.peerStat(p.host)
		e := st.ewmaNanos.Load()
		if e == 0 {
			e = neutral
		}
		base := float64(e) * float64(1+st.inflight.Load())
		r := min(p.resident, fp)
		miss := 1 - float64(r)/float64(fp)
		score := base * (1 + s.LocalityWeight*miss)
		if bestScore < 0 || score < bestScore {
			best, bestScore = p, score
		}
		if r > bestResident {
			bestResident, pick.best = r, p.host
		}
	}
	if r := min(best.resident, fp); r > 0 {
		pick.saved = r
		pick.frac = float64(r) / float64(fp)
	}
	return best.host, pick
}

// pickPeerByLatency is the locality-blind ranking: unprobed peers first
// (round-robin, so the scheduler explores and degrades to plain round-robin
// when it has no data), then the probed peer with the lowest EWMA latency
// scaled by its in-flight forward count.
func (s *Scheduler) pickPeerByLatency(peers []peer) string {
	unprobed := 0
	for _, p := range peers {
		if s.peerStat(p.host).ewmaNanos.Load() == 0 {
			unprobed++
		}
	}
	if unprobed > 0 {
		n := int(s.rr.Add(1)-1) % unprobed
		for _, p := range peers {
			if s.peerStat(p.host).ewmaNanos.Load() == 0 {
				if n == 0 {
					return p.host
				}
				n--
			}
		}
	}
	best := peers[0].host
	var bestScore int64 = -1
	for _, p := range peers {
		st := s.peerStat(p.host)
		score := st.ewmaNanos.Load() * (1 + st.inflight.Load())
		if bestScore < 0 || score < bestScore {
			best, bestScore = p.host, score
		}
	}
	return best
}

// ForwardBegin records a forward in flight to host (load signal for the
// weighted picker). Pair with ForwardEnd around the transport call.
func (s *Scheduler) ForwardBegin(host string) {
	s.peerStat(host).inflight.Add(1)
}

// ForwardEnd records a completed forward to host: the observed round-trip
// feeds the latency EWMA, and a failure multiplies the estimate so traffic
// drains from a flaky peer before its lease expires.
func (s *Scheduler) ForwardEnd(host string, d time.Duration, ok bool) {
	st := s.peerStat(host)
	if st.inflight.Add(-1) < 0 {
		st.inflight.Store(0)
	}
	sample := int64(d)
	if sample <= 0 {
		sample = 1
	}
	for {
		old := st.ewmaNanos.Load()
		var next int64
		switch {
		case !ok:
			// Penalise relative to the larger of the estimate and the
			// observed round-trip, floored so a fast failure (connection
			// refused) cannot score a dead peer as the fastest host.
			base := old
			if sample > base {
				base = sample
			}
			if base < minFailureBase {
				base = minFailureBase
			}
			if base > maxEwmaNanos/failurePenalty {
				next = maxEwmaNanos
			} else {
				next = base * failurePenalty
			}
		case old == 0:
			next = sample
		default:
			next = old + (sample-old)>>ewmaShift
			if next == old && sample != old {
				// Make tiny deltas converge instead of sticking.
				if sample > old {
					next = old + 1
				} else {
					next = old - 1
				}
			}
		}
		if next <= 0 {
			next = 1
		}
		if st.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// PeerLatency reports the smoothed forward latency observed for host
// (0 = never probed). Diagnostics and tests.
func (s *Scheduler) PeerLatency(host string) time.Duration {
	return time.Duration(s.peerStat(host).ewmaNanos.Load())
}

// leaseLive reports whether a lease record marks a live host: the leaseMark
// payload — alone, or followed by newline-separated advert lines — still
// returned by the tier (so its tier-side TTL has not run out).
// Anything else — including the previous release's writer-clock expiry
// stamps, whose one-release read-side tolerance has been removed — is dead:
// stale stamp records never expire tier-side, so counting them live would
// keep a crashed old host forwardable forever. (The marker is non-numeric,
// so a stamp can never alias it.)
func leaseLive(rec []byte) bool {
	if len(rec) < len(leaseMark) || string(rec[:len(leaseMark)]) != string(leaseMark) {
		return false
	}
	return len(rec) == len(leaseMark) || rec[len(leaseMark)] == '\n'
}

// leaseRecord builds this host's lease: the liveness marker, then one
// "\n<fn> <bytes>" line per advertised function, where bytes is the state
// the residency provider reports resident for it (0 without a provider). It
// also returns how many functions the record lists.
func (s *Scheduler) leaseRecord() ([]byte, int) {
	buf := append([]byte(nil), leaseMark...)
	n := 0
	s.fns.Range(func(k, v any) bool {
		fn := k.(string)
		if !v.(*fnState).advertised.Load() || strings.IndexByte(fn, '\n') >= 0 {
			// A name with a newline cannot be encoded in the line format
			// (no registered function has one); skip it rather than
			// corrupt the record.
			return true
		}
		var b int64
		if s.residency != nil {
			b = max(s.residency(fn), 0)
		}
		buf = append(buf, '\n')
		buf = append(buf, fn...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, b, 10)
		n++
		return true
	})
	return buf, n
}

// eachAdvert calls visit with every function a lease record lists and the
// resident bytes listed with it. A malformed line is skipped. The bytes are
// split off at the line's last space, so a name may contain spaces.
func eachAdvert(rec []byte, visit func(fn string, resident int64)) {
	for {
		i := bytes.IndexByte(rec, '\n')
		if i < 0 {
			return
		}
		rec = rec[i+1:]
		line := rec
		if j := bytes.IndexByte(line, '\n'); j >= 0 {
			line = line[:j]
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		b, err := strconv.ParseInt(string(line[sp+1:]), 10, 64)
		if err != nil || b < 0 {
			continue
		}
		visit(string(line[:sp]), b)
	}
}

// leases reads the lease records of hosts in one batched read, aligned with
// hosts. The records are SetEx'd, so the tier hides an expired one and
// liveness is decided on the tier's clock alone.
func (s *Scheduler) leases(hosts []string) ([][]byte, error) {
	if len(hosts) == 0 {
		return nil, nil
	}
	keys := make([]string, len(hosts))
	for i, h := range hosts {
		keys[i] = aliveKey(h)
	}
	return s.store.MGet(keys)
}

// Heartbeat is one beat. It writes this host's lease with SetEx (the tier
// expires it on its own clock; nothing here writes or compares a timestamp)
// and joins the membership set when the set, read in the same beat, does
// not name this host yet. It then reads every peer's lease in one MGet,
// removes members whose lease is gone, and publishes the view that cold
// misses read until the next beat. The cost is the same however many
// functions are warm: one SetEx, one SMembers, at most one MGet.
//
// A host that lists nothing and listed nothing last time writes nothing; it
// only refreshes its view. A draining host does nothing.
func (s *Scheduler) Heartbeat() error {
	s.beatMu.Lock()
	defer s.beatMu.Unlock()
	if s.draining.Load() {
		// Draining hosts have deleted their lease; re-arming it would keep
		// peers forwarding here for another TTL.
		return nil
	}
	rec, n := s.leaseRecord()
	if n > 0 || s.listed {
		if err := s.store.SetEx(aliveKey(s.host), rec, s.leaseTTL()); err != nil {
			return err
		}
		s.listed = n > 0
		s.lastBeat.Store(s.clock.Now().UnixNano())
	}
	members, err := s.store.SMembers(hostsKey)
	if err != nil {
		return err
	}
	others := make([]string, 0, len(members))
	joined := false
	for _, h := range members {
		if h == s.host {
			joined = true
		} else {
			others = append(others, h)
		}
	}
	if n > 0 && !joined {
		if _, err := s.store.SAdd(hostsKey, s.host); err != nil {
			return err
		}
	}
	recs, err := s.leases(others)
	if err != nil {
		return err
	}
	v := view{}
	for i, h := range others {
		if !leaseLive(recs[i]) {
			// A listed host that notices a lapsed lease drops the member,
			// so the set does not grow with every host that ever ran. A
			// host that lists nothing may see only part of the tier (a
			// shard daemon beating on the engine it serves), so it never
			// prunes.
			if n > 0 {
				s.store.SRem(hostsKey, h)
			}
			continue
		}
		eachAdvert(recs[i], func(fn string, resident int64) {
			v[fn] = append(v[fn], peer{host: h, resident: resident})
		})
	}
	s.peers.Store(&v)
	return nil
}

// StartHeartbeat beats once, then launches the background loop that beats
// every LeaseTTL/3 until StopHeartbeat. The loop beats whether or not
// anything is advertised, so a host that only forwards keeps its view
// fresh. Idempotent.
func (s *Scheduler) StartHeartbeat() {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	if s.hbStop != nil || s.hbStopped.Load() {
		return
	}
	s.Heartbeat()
	stop := make(chan struct{})
	s.hbStop = stop
	go s.heartbeatLoop(stop)
}

// StopHeartbeat ends the heartbeat loop. The lease record is left to expire
// on its own, as a crashed host's does; a clean exit goes through Drain,
// which deletes it.
func (s *Scheduler) StopHeartbeat() {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	s.hbStopped.Store(true)
	if s.hbStop != nil {
		close(s.hbStop)
		s.hbStop = nil
	}
}

// Drain puts the scheduler into drain mode: the heartbeat stops, every
// advert ends, and the lease is deleted before Drain returns, so no view a
// peer builds afterwards names this host. No later advertise or heartbeat
// can re-attract traffic. In-flight calls are unaffected; Schedule keeps
// working (on the view of the last beat) but prefers warm peers and never
// advertises. The transition is one-way — a drained host is reclaimed, not
// revived. If the deletion fails (tier unreachable), the lease still
// expires within one TTL.
func (s *Scheduler) Drain() error {
	if s.draining.Swap(true) {
		return nil
	}
	s.StopHeartbeat()
	s.fns.Range(func(_, v any) bool {
		e := v.(*fnState)
		e.idle.Store(0)
		e.advertised.Store(false)
		return true
	})
	// A beat that began before the drain has written its lease by the time
	// beatMu is ours, and every later beat sees draining and writes nothing,
	// so this deletion is final.
	s.beatMu.Lock()
	defer s.beatMu.Unlock()
	s.listed = false
	return s.store.Delete(aliveKey(s.host))
}

// Draining reports whether Drain was called.
func (s *Scheduler) Draining() bool { return s.draining.Load() }

func (s *Scheduler) heartbeatLoop(stop chan struct{}) {
	for {
		s.clock.Sleep(s.leaseTTL() / 3)
		select {
		case <-stop:
			return
		default:
		}
		s.Heartbeat()
	}
}

// NoteWarm records that this host now holds n more idle warm Faaslets for
// fn (e.g. after a cold start completes or a call finishes), and advertises
// the host as warm for fn. It performs no global operation: the next beat's
// lease lists a new advert.
func (s *Scheduler) NoteWarm(fn string, n int) error {
	e := s.fn(fn)
	e.idle.Add(int64(n))
	s.advertise(e)
	return nil
}

// NoteEvicted records that this host lost n idle warm Faaslets for fn (they
// were acquired for execution, or evicted from the pool). Purely local: the
// host stays advertised, because its Faaslets for fn are still alive (busy
// or resetting). Use Retreat when the last Faaslet for fn is truly gone.
func (s *Scheduler) NoteEvicted(fn string, n int) error {
	e := s.fn(fn)
	for {
		cur := e.idle.Load()
		next := cur - int64(n)
		if next < 0 {
			next = 0
		}
		if e.idle.CompareAndSwap(cur, next) {
			return nil
		}
	}
}

// Retreat ends this host's advert for fn: its last live Faaslet for fn is
// gone (failed cold start, eviction of the final pooled Faaslet, shutdown),
// so peers must stop forwarding here. It writes nothing: the next beat's
// lease no longer lists fn, and each peer's view drops it at that peer's
// beat after.
func (s *Scheduler) Retreat(fn string) {
	e := s.fn(fn)
	e.idle.Store(0)
	e.advertised.Store(false)
}

// WarmCount reports this host's idle warm Faaslets for fn.
func (s *Scheduler) WarmCount(fn string) int {
	return int(s.fn(fn).idle.Load())
}

// Advertised reports whether this host advertises itself as warm for fn;
// its lease lists fn from the next beat on.
func (s *Scheduler) Advertised(fn string) bool {
	return s.fn(fn).advertised.Load()
}

// WarmHosts lists the hosts whose live leases list fn, this host included,
// read from the tier without any view or side effect (tests and
// diagnostics).
func (s *Scheduler) WarmHosts(fn string) ([]string, error) {
	members, err := s.store.SMembers(hostsKey)
	if err != nil {
		return nil, err
	}
	recs, err := s.leases(members)
	if err != nil {
		return nil, err
	}
	var warm []string
	for i, h := range members {
		if !leaseLive(recs[i]) {
			continue
		}
		eachAdvert(recs[i], func(f string, _ int64) {
			if f == fn {
				warm = append(warm, h)
			}
		})
	}
	return warm, nil
}

// Begin marks a call executing on this host (capacity accounting).
func (s *Scheduler) Begin() {
	s.inflight.Add(1)
}

// End marks a call finished.
func (s *Scheduler) End() {
	if s.inflight.Add(-1) < 0 {
		s.inflight.Store(0)
	}
}

// Inflight reports executing calls.
func (s *Scheduler) Inflight() int {
	n := s.inflight.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}
