package sched

import (
	"bytes"
	"fmt"
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

// warmSetKey is the global-tier key holding a function's warm hosts.
func warmSetKey(fn string) string { return "sched/warm/" + fn }

// aliveKey is the global-tier key holding a host's liveness lease: a
// presence marker written with SetEx, so the tier itself expires it on its
// own clock. A host whose record has vanished is dead to peers; no writer
// or observer clock ever enters the judgement.
func aliveKey(host string) string { return "sched/alive/" + host }

// leaseMark is the lease record's payload. Deliberately non-numeric: the
// previous release stored a writer-clock expiry stamp (decimal unix nanos)
// here, and nothing must ever mistake the new marker for one.
var leaseMark = []byte("up")

// DefaultPeerCacheTTL bounds the staleness of the cached peer warm set. A
// new warm host becomes visible to peers within this window; a vanished one
// stops receiving forwards within it (forwarding also falls back locally on
// transport failure, so staleness is a latency cost, not a correctness one).
const DefaultPeerCacheTTL = time.Second

// DefaultLeaseTTL is how long a host's warm advertisements outlive its last
// heartbeat. The heartbeat loop refreshes the lease every LeaseTTL/3, so a
// healthy host misses two beats before anyone doubts it; a crashed host is
// filtered from every peer's forwarding within one lease TTL (plus at most
// one peer-cache TTL of staleness).
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

// fnState is the per-function scheduler state: the local idle-warm counter,
// whether this host currently advertises itself in the function's global
// warm set, and the cached peer warm set.
type fnState struct {
	// idle counts this host's idle warm Faaslets (including Faaslets whose
	// post-call reset is still in flight — they are committed to the pool).
	idle atomic.Int64
	// advertised tracks membership in the global warm set, so steady-state
	// warm traffic never re-issues SAdd.
	advertised atomic.Bool

	// cacheMu guards the cached peer set below. resident maps peer host →
	// resident state bytes it advertised for this function on its lease
	// (decoded from the same batched lease read that judged liveness); nil
	// when no peer advertised any.
	cacheMu  sync.Mutex
	peers    []string
	resident map[string]int64
	fetched  time.Time
	cached   bool
}

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

	// PeerCacheTTL is how long a fetched peer warm set is trusted. Set it
	// before first use; zero means DefaultPeerCacheTTL.
	PeerCacheTTL time.Duration

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

// SetClock replaces the clock driving peer-cache expiry and the heartbeat
// cadence (the runtime passes its own, so simulated clusters beat in
// simulated time). Liveness itself is judged on the global tier's clock,
// never this one. Call before use.
func (s *Scheduler) SetClock(c vtime.Clock) {
	if c != nil {
		s.clock = c
	}
}

// Host returns this scheduler's host name.
func (s *Scheduler) Host() string { return s.host }

// SetResidencyProvider installs the callback that reports this host's
// locally resident state bytes for an advertised function. Each lease write
// piggybacks the advertised functions' residency on the lease record, so
// peers learn it from the batched lease read they already perform — steady
// state adds zero extra tier operations. Call before StartHeartbeat.
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

func (s *Scheduler) peerCacheTTL() time.Duration {
	if s.PeerCacheTTL > 0 {
		return s.PeerCacheTTL
	}
	return DefaultPeerCacheTTL
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

// Schedule decides where a call to fn should run. The warm local path is
// lock-free and touches no global state.
func (s *Scheduler) Schedule(fn string) (Decision, error) {
	e := s.fn(fn)
	warmHere := e.idle.Load() > 0
	draining := s.draining.Load()
	if warmHere && !draining && s.inflight.Load() < s.capacity {
		s.Stats.LocalWarm.Add(1)
		return Decision{Placement: PlaceLocalWarm}, nil
	}

	// Consult the (cached) shared warm set for another host.
	peers, resident, err := s.peers(e, fn)
	if err != nil {
		return Decision{}, fmt.Errorf("sched: warm set for %s: %w", fn, err)
	}
	if len(peers) > 0 {
		// Share with a warm peer: lowest load-adjusted latency first,
		// blended with data locality when the function has state gravity.
		target, lp := s.pickPeer(fn, peers, resident)
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

	// Cold start here and advertise this host as warm for fn. SAdd is the
	// atomic update of the shared scheduler state; it is skipped when the
	// host is already advertised (write-through only on the transition).
	if err := s.advertise(e, fn); err != nil {
		return Decision{}, fmt.Errorf("sched: advertise warm %s: %w", fn, err)
	}
	s.Stats.ColdStart.Add(1)
	return Decision{Placement: PlaceLocalCold}, nil
}

// advertise performs the not-advertised → advertised transition: make sure
// this host's liveness lease exists (peers treat a warm entry without a live
// lease as a dead host), then add it to the function's warm set.
func (s *Scheduler) advertise(e *fnState, fn string) error {
	if s.draining.Load() {
		// A draining host must never (re-)enter the warm set: its lease is
		// expiring and peers are routing around it. Silently skipping keeps
		// NoteWarm callers working while the pool winds down.
		return nil
	}
	if !e.advertised.CompareAndSwap(false, true) {
		return nil
	}
	if err := s.ensureLease(); err != nil {
		e.advertised.Store(false)
		return err
	}
	if _, err := s.store.SAdd(warmSetKey(fn), s.host); err != nil {
		e.advertised.Store(false)
		return err
	}
	return nil
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
func (s *Scheduler) pickPeer(fn string, peers []string, resident map[string]int64) (string, localityPick) {
	var fp int64
	if s.LocalityWeight > 0 {
		if s.footprint != nil {
			fp = s.footprint(fn)
		}
		for _, h := range peers {
			if r := resident[h]; r > fp {
				fp = r
			}
		}
	}
	if s.LocalityWeight <= 0 || fp <= 0 {
		return s.pickPeerByLatency(peers), localityPick{}
	}

	var probedSum, probedN int64
	for _, h := range peers {
		if e := s.peerStat(h).ewmaNanos.Load(); e > 0 {
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
	for _, h := range peers {
		st := s.peerStat(h)
		e := st.ewmaNanos.Load()
		if e == 0 {
			e = neutral
		}
		base := float64(e) * float64(1+st.inflight.Load())
		r := resident[h]
		if r > fp {
			r = fp
		}
		miss := 1 - float64(r)/float64(fp)
		score := base * (1 + s.LocalityWeight*miss)
		if bestScore < 0 || score < bestScore {
			best, bestScore = h, score
		}
		if r > bestResident {
			bestResident, pick.best = r, h
		}
	}
	if r := resident[best]; r > 0 {
		if r > fp {
			r = fp
		}
		pick.saved = r
		pick.frac = float64(r) / float64(fp)
	}
	return best, pick
}

// pickPeerByLatency is the locality-blind ranking: unprobed peers first
// (round-robin, so the scheduler explores and degrades to plain round-robin
// when it has no data), then the probed peer with the lowest EWMA latency
// scaled by its in-flight forward count.
func (s *Scheduler) pickPeerByLatency(peers []string) string {
	unprobed := 0
	for _, h := range peers {
		if s.peerStat(h).ewmaNanos.Load() == 0 {
			unprobed++
		}
	}
	if unprobed > 0 {
		n := int(s.rr.Add(1)-1) % unprobed
		for _, h := range peers {
			if s.peerStat(h).ewmaNanos.Load() == 0 {
				if n == 0 {
					return h
				}
				n--
			}
		}
	}
	best := peers[0]
	var bestScore int64 = -1
	for _, h := range peers {
		st := s.peerStat(h)
		score := st.ewmaNanos.Load() * (1 + st.inflight.Load())
		if bestScore < 0 || score < bestScore {
			best, bestScore = h, score
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

// PeerInflight reports forwards currently in flight to host.
func (s *Scheduler) PeerInflight(host string) int {
	return int(s.peerStat(host).inflight.Load())
}

// peers returns the live warm hosts for fn other than this one, serving
// from the TTL cache when fresh and refreshing from the global tier when
// stale. A refresh reads the function's warm set plus the listed hosts'
// liveness leases (one batched read), filters the dead, and best-effort
// evicts their stale entries from the global set.
// Alongside the peer list it returns the residency those peers advertised
// for fn on their leases (nil when none did), decoded from the same batched
// lease read and cached with the peer set.
func (s *Scheduler) peers(e *fnState, fn string) ([]string, map[string]int64, error) {
	ttl := s.peerCacheTTL()
	now := s.clock.Now()
	e.cacheMu.Lock()
	if e.cached && now.Sub(e.fetched) < ttl {
		peers, resident := e.peers, e.resident
		e.cacheMu.Unlock()
		return peers, resident, nil
	}
	e.cacheMu.Unlock()

	hosts, err := s.store.SMembers(warmSetKey(fn))
	if err != nil {
		return nil, nil, err
	}
	candidates := hosts[:0]
	for _, h := range hosts {
		if h != s.host {
			candidates = append(candidates, h)
		}
	}
	peers, dead, leases, err := s.filterAlive(candidates)
	if err != nil {
		return nil, nil, err
	}
	var resident map[string]int64
	for i, h := range peers {
		if b := residencyFor(leases[i], fn); b > 0 {
			if resident == nil {
				resident = make(map[string]int64, len(peers))
			}
			resident[h] = b
		}
	}
	// A dead host's warm entries are evicted by whoever notices: the global
	// set heals itself instead of waiting for the crashed owner's retreat.
	for _, h := range dead {
		s.store.SRem(warmSetKey(fn), h)
	}
	// Only non-empty peer sets are cached: a host with no warm peers is
	// about to cold-start (or queue under saturation), and must notice a
	// newly warm peer immediately rather than after a TTL.
	e.cacheMu.Lock()
	e.peers = peers
	e.resident = resident
	e.fetched = now
	e.cached = len(peers) > 0
	e.cacheMu.Unlock()
	return peers, resident, nil
}

// filterAlive splits hosts into live and dead by a single batched existence
// check on their lease records: the records are SetEx'd, so the tier hides
// an expired lease from the MGet and liveness is decided entirely on the
// tier's clock — no timestamp is parsed and no local clock is consulted
// anywhere on this path. A missing record counts as dead: every advertiser
// writes its lease before its first SAdd, so only crashed (or fabricated)
// hosts lack one.
// It also returns each live host's lease record (aligned with alive), so
// callers can decode the residency adverts piggybacked on it without a
// second tier read.
func (s *Scheduler) filterAlive(hosts []string) (alive, dead []string, aliveLeases [][]byte, err error) {
	if len(hosts) == 0 {
		return nil, nil, nil, nil
	}
	keys := make([]string, len(hosts))
	for i, h := range hosts {
		keys[i] = aliveKey(h)
	}
	leases, err := s.store.MGet(keys)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, h := range hosts {
		if leaseLive(leases[i]) {
			alive = append(alive, h)
			aliveLeases = append(aliveLeases, leases[i])
		} else {
			dead = append(dead, h)
		}
	}
	return alive, dead, aliveLeases, nil
}

// leaseLive reports whether a lease record marks a live host: the leaseMark
// payload — alone, or followed by newline-separated residency adverts —
// still returned by the tier (so its tier-side TTL has not run out).
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

// maxResidencyAdverts bounds the residency entries piggybacked on one lease
// record, so a host warm for hundreds of functions cannot bloat the batched
// lease read every peer refresh performs.
const maxResidencyAdverts = 64

// leasePayload builds this host's lease record: the liveness marker, plus
// one "\n<fn> <bytes>" line per advertised function with locally resident
// state (per the residency provider). Residency rides the lease precisely
// because peers already MGet lease records on every warm-set refresh —
// advertising adds zero extra tier operations in steady state.
func (s *Scheduler) leasePayload() []byte {
	buf := append([]byte(nil), leaseMark...)
	if s.residency == nil {
		return buf
	}
	n := 0
	s.fns.Range(func(k, v any) bool {
		if n >= maxResidencyAdverts {
			return false
		}
		if !v.(*fnState).advertised.Load() {
			return true
		}
		fn := k.(string)
		if strings.ContainsAny(fn, " \n") {
			// Unencodable in the line format; skip rather than corrupt the
			// record (such a name cannot come from a registered function).
			return true
		}
		b := s.residency(fn)
		if b <= 0 {
			return true
		}
		buf = append(buf, '\n')
		buf = append(buf, fn...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, b, 10)
		n++
		return true
	})
	return buf
}

// residencyFor extracts fn's advertised resident bytes from a lease record,
// 0 when the record carries no (parseable) advert for fn.
func residencyFor(rec []byte, fn string) int64 {
	for {
		i := bytes.IndexByte(rec, '\n')
		if i < 0 {
			return 0
		}
		rec = rec[i+1:]
		line := rec
		if j := bytes.IndexByte(line, '\n'); j >= 0 {
			line = line[:j]
		}
		if len(line) > len(fn)+1 && string(line[:len(fn)]) == fn && line[len(fn)] == ' ' {
			v, err := strconv.ParseInt(string(line[len(fn)+1:]), 10, 64)
			if err != nil || v < 0 {
				return 0
			}
			return v
		}
	}
}

// Heartbeat re-arms this host's liveness lease for another LeaseTTL on the
// tier's clock (SetEx — the tier expires the record itself; nothing here
// writes or compares a timestamp). It also re-asserts the host's warm-set
// entries for every advertised function (idempotent SAdds), so an entry
// wrongly evicted while the host was unresponsive reappears within one
// beat.
func (s *Scheduler) Heartbeat() error {
	if s.draining.Load() {
		// Draining hosts let the lease run out — re-arming it would keep
		// peers forwarding here for another TTL.
		return nil
	}
	if err := s.store.SetEx(aliveKey(s.host), s.leasePayload(), s.leaseTTL()); err != nil {
		return err
	}
	s.lastBeat.Store(s.clock.Now().UnixNano())
	var firstErr error
	s.fns.Range(func(k, v any) bool {
		if v.(*fnState).advertised.Load() {
			if _, err := s.store.SAdd(warmSetKey(k.(string)), s.host); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return true
	})
	return firstErr
}

// ensureLease writes the lease if it has never been written or is due for
// refresh — called on the advertise transition so the warm set never names
// a host without a live lease, whether or not the heartbeat loop runs.
func (s *Scheduler) ensureLease() error {
	// The local clock here only rate-limits redundant writes (beat cadence);
	// it never judges the lease itself — that is the tier's job.
	now := s.clock.Now().UnixNano()
	if last := s.lastBeat.Load(); last != 0 && now-last < int64(s.leaseTTL()/3) {
		return nil
	}
	// Write only the lease record here: advertise is on a caller's critical
	// path and the fns walk belongs to the background beat. (leasePayload
	// still piggybacks residency for already-advertised functions.)
	if err := s.store.SetEx(aliveKey(s.host), s.leasePayload(), s.leaseTTL()); err != nil {
		return err
	}
	s.lastBeat.Store(s.clock.Now().UnixNano())
	return nil
}

// StartHeartbeat launches the background lease refresher: one beat every
// LeaseTTL/3 while at least one function is advertised. Idempotent.
func (s *Scheduler) StartHeartbeat() {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	if s.hbStop != nil || s.hbStopped.Load() {
		return
	}
	stop := make(chan struct{})
	s.hbStop = stop
	go s.heartbeatLoop(stop)
}

// StopHeartbeat ends the heartbeat loop. The lease record is deliberately
// left to expire on its own: a clean shutdown retreats its warm entries
// anyway, and expiry-as-departure keeps one code path for clean and
// crashed exits.
func (s *Scheduler) StopHeartbeat() {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	s.hbStopped.Store(true)
	if s.hbStop != nil {
		close(s.hbStop)
		s.hbStop = nil
	}
}

// Drain puts the scheduler into drain mode: every advertised function is
// retreated from the global warm set, the heartbeat stops so the liveness
// lease expires on the tier's clock within one TTL, and no future advertise
// or heartbeat can re-attract traffic. In-flight calls are unaffected;
// Schedule keeps working but prefers warm peers and never advertises. The
// transition is one-way — a drained host is reclaimed, not revived.
//
// The best-effort retreat is belt and braces: even if the SRem writes fail
// (tier unreachable), the expiring lease alone routes every peer around this
// host within one lease TTL plus one peer-cache TTL.
func (s *Scheduler) Drain() error {
	if s.draining.Swap(true) {
		return nil
	}
	s.StopHeartbeat()
	var firstErr error
	s.fns.Range(func(k, v any) bool {
		e := v.(*fnState)
		e.idle.Store(0)
		if e.advertised.Swap(false) {
			if _, err := s.store.SRem(warmSetKey(k.(string)), s.host); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return true
	})
	return firstErr
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
		if s.hbStopped.Load() {
			return
		}
		if s.anyAdvertised() {
			s.Heartbeat()
		}
	}
}

func (s *Scheduler) anyAdvertised() bool {
	found := false
	s.fns.Range(func(_, v any) bool {
		if v.(*fnState).advertised.Load() {
			found = true
			return false
		}
		return true
	})
	return found
}

// InvalidatePeers drops the cached peer warm set for fn, forcing the next
// miss to refresh from the global tier (used when a forward fails).
func (s *Scheduler) InvalidatePeers(fn string) {
	e := s.fn(fn)
	e.cacheMu.Lock()
	e.cached = false
	e.peers = nil
	e.cacheMu.Unlock()
}

// NoteWarm records that this host now holds n more idle warm Faaslets for
// fn (e.g. after a cold start completes or a call finishes). The global
// warm set is only written on the not-advertised → advertised transition;
// steady-state warm churn performs zero global operations.
func (s *Scheduler) NoteWarm(fn string, n int) error {
	e := s.fn(fn)
	e.idle.Add(int64(n))
	return s.advertise(e, fn)
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

// Retreat removes this host from fn's global warm set: its last live
// Faaslet for fn is gone (failed cold start, eviction of the final pooled
// Faaslet, shutdown), so peers must stop forwarding here.
func (s *Scheduler) Retreat(fn string) error {
	e := s.fn(fn)
	e.idle.Store(0)
	if e.advertised.Swap(false) {
		if _, err := s.store.SRem(warmSetKey(fn), s.host); err != nil {
			return err
		}
	}
	return nil
}

// WarmCount reports this host's idle warm Faaslets for fn.
func (s *Scheduler) WarmCount(fn string) int {
	return int(s.fn(fn).idle.Load())
}

// Advertised reports whether this host is in fn's global warm set (per its
// own bookkeeping).
func (s *Scheduler) Advertised(fn string) bool {
	return s.fn(fn).advertised.Load()
}

// WarmHosts lists the cluster's live warm hosts for fn from the shared
// state: the raw set filtered by liveness leases, uncached and without the
// eviction side effect (tests and diagnostics).
func (s *Scheduler) WarmHosts(fn string) ([]string, error) {
	hosts, err := s.store.SMembers(warmSetKey(fn))
	if err != nil {
		return nil, err
	}
	alive, _, _, err := s.filterAlive(hosts)
	return alive, err
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
