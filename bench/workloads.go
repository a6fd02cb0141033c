package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"faasm.dev/faasm/internal/kvs"
)

// Workload names; BENCHMARK.json lists the same six.
const (
	wlWarmEcho   = "warm_echo"
	wlChain      = "chain_fanout"
	wlCompute    = "compute_2mm"
	wlStateRead  = "state_read"
	wlStateWrite = "state_write"
	wlCold       = "cold_first_call"
)

var workloadNames = []string{wlWarmEcho, wlChain, wlCompute, wlStateRead, wlStateWrite, wlCold}

const (
	echoPayloadBytes = 64
	stateKeys        = 16 // read-only keys of state_read, writable keys of state_write
	// coldFunctions is K: the functions each cold_first_call round uploads
	// and then invokes exactly once.
	coldFunctions = 2000
)

// workload is one traffic mix: what is deployed, what the tier holds, the
// seeded request stream and the oracle for its replies. Everything a
// workload sends derives from the seed alone.
type workload struct {
	name string
	// fn is the function the requests invoke (the probes walk the same one).
	fn     string
	guests []guest
	// seedTier writes the workload's state values through the ring (nil
	// when the workload keeps no state).
	seedTier func(tier kvs.Store) error
	// firstPass is sent once, serially, as the last step of set-up: it
	// cold-starts every guest and touches every state key, so no request in
	// the measured window is the first of its kind.
	firstPass []request
	// gen returns request i of a phase's stream: a pure function of the
	// seed, the phase and i.
	gen func(phase loadPhase, i uint64) request
	// check verifies one reply; state_write also records what it sent.
	check func(r request, out []byte) error
	// verify inspects the tier directly when a window ends and returns how
	// many of its checks failed (nil when replies are the whole oracle).
	verify func(shardAddrs []string) (int, error)
}

// tailPct is the percentile lat_tail_ms reports, on every workload. A 2 s
// slice of the slowest workload (compute_2mm, ~60 requests/s) leaves twelve
// samples beyond it. p99 spread 15-35% between identical runs on the state
// workloads and on cold_first_call (the collector's pauses in a growing heap)
// where p90 spread like the median, so p99 is reported, not gating, as
// ingress.lat_p99_ms.
const tailPct = 90

// mix64 is splitmix64 over (seed, phase, i, lane): the generator's only
// source of variation.
func mix64(seed int64, phase loadPhase, i, lane uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(phase)*0xbf58476d1ce4e5b9 + i*0x94d049bb133111eb + lane*0xd6e8feb86659fd93
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seededValue is state value number k of a seed: 512 KiB of generator output.
func seededValue(seed int64, k int) []byte {
	b := make([]byte, stateValueBytes)
	for w := 0; w < len(b)/8; w++ {
		binary.LittleEndian.PutUint64(b[w*8:], mix64(seed, phaseFirstPass, uint64(w), uint64(k)+1))
	}
	return b
}

// chunkWordSum is what the state_read guest computes over one value: the
// wrapping sum of the first 32-bit word of every 4 KiB chunk.
func chunkWordSum(val []byte) uint32 {
	var s uint32
	for c := 0; c < len(val)/stateChunk; c++ {
		s += binary.LittleEndian.Uint32(val[c*stateChunk:])
	}
	return s
}

// fanoutSum is the fanout guest's output for base b: Σ (b+i), i < 64, in
// wrapping 32-bit arithmetic.
func fanoutSum(b uint32) uint32 {
	var s uint32
	for i := uint32(0); i < fanoutChildren; i++ {
		s += b + i
	}
	return s
}

// checksumMatches compares a sandbox checksum with the native one at the
// tolerance internal/kernels' own correctness gate uses.
func checksumMatches(got, want float64) bool {
	return math.Abs(got-want)/math.Max(math.Abs(want), 1) <= 1e-9
}

func roKey(k int) string { return fmt.Sprintf("ro/%02d", k) }
func rwKey(k int) string { return fmt.Sprintf("rw/%05d", k) } // 8 bytes: one log word

func wantBytes(r request, out []byte) error {
	if !bytes.Equal(out, r.want) {
		return fmt.Errorf("%s: reply %x, want %x", r.fn, out, r.want)
	}
	return nil
}

func le32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// newWorkload builds the named workload for a seed.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case wlWarmEcho:
		return &workload{
			name: name, fn: echoGuest.Name, guests: []guest{echoGuest},
			firstPass: []request{echoRequest(seed, phaseFirstPass, 0)},
			gen:       func(p loadPhase, i uint64) request { return echoRequest(seed, p, i) },
			check:     wantBytes,
		}, nil

	case wlChain:
		gen := func(p loadPhase, i uint64) request {
			base := uint32(mix64(seed, p, i, 0))
			return request{fn: fanoutGuest.Name, body: le32(base), want: le32(fanoutSum(base))}
		}
		return &workload{
			name: name, fn: fanoutGuest.Name, guests: []guest{echoGuest, fanoutGuest},
			firstPass: []request{gen(phaseFirstPass, 0)},
			gen:       gen, check: wantBytes,
		}, nil

	case wlCompute:
		g, native, err := computeGuest()
		if err != nil {
			return nil, err
		}
		gen := func(loadPhase, uint64) request { return request{fn: g.Name} }
		return &workload{
			name: name, fn: g.Name, guests: []guest{g},
			firstPass: []request{gen(phaseFirstPass, 0)},
			gen:       gen,
			check: func(r request, out []byte) error {
				if len(out) != 8 {
					return fmt.Errorf("%s: %d-byte reply", r.fn, len(out))
				}
				if got := math.Float64frombits(binary.LittleEndian.Uint64(out)); !checksumMatches(got, native) {
					return fmt.Errorf("%s: checksum %v, native %v", r.fn, got, native)
				}
				return nil
			},
		}, nil

	case wlStateRead:
		model := seededValue(seed, 0)
		values := make([][]byte, stateKeys)
		sums := make([]uint32, stateKeys)
		for k := range values {
			values[k] = seededValue(seed, k+1)
			sums[k] = chunkWordSum(values[k]) + chunkWordSum(model)
		}
		reqFor := func(k int) request {
			return request{fn: stateReadGuest.Name, body: []byte(roKey(k)), want: le32(sums[k])}
		}
		w := &workload{
			name: name, fn: stateReadGuest.Name, guests: []guest{stateReadGuest},
			seedTier: func(tier kvs.Store) error {
				if err := tier.Set(modelKey, model); err != nil {
					return err
				}
				for k, v := range values {
					if err := tier.Set(roKey(k), v); err != nil {
						return err
					}
				}
				return nil
			},
			gen:   func(p loadPhase, i uint64) request { return reqFor(int(mix64(seed, p, i, 0) % stateKeys)) },
			check: wantBytes,
		}
		for k := 0; k < stateKeys; k++ {
			w.firstPass = append(w.firstPass, reqFor(k))
		}
		return w, nil

	case wlStateWrite:
		return newStateWrite(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func echoRequest(seed int64, p loadPhase, i uint64) request {
	body := make([]byte, echoPayloadBytes)
	for lane := 0; lane < echoPayloadBytes/8; lane++ {
		binary.LittleEndian.PutUint64(body[lane*8:], mix64(seed, p, i, uint64(lane)))
	}
	return request{fn: echoGuest.Name, body: body, want: body}
}

// newStateWrite builds state_write. Its oracle has two halves: every reply
// echoes its stamp, and when a window ends every key is read from each
// shard directly — both replicas identical, every chunk head a stamp that
// was sent for that key, and the log exactly 16 bytes per successful call.
func newStateWrite(seed int64) *workload {
	var mu sync.Mutex
	sent := make([]map[uint64]bool, stateKeys) // stamps acknowledged per key
	for k := range sent {
		sent[k] = map[uint64]bool{}
	}
	acked := 0 // successful calls since the tier started: log records

	reqFor := func(k int, stamp uint64) request {
		body := binary.LittleEndian.AppendUint64(nil, stamp)
		return request{
			fn: stateWriteGuest.Name, body: append(body, rwKey(k)...),
			want: body[:8:8], key: k, stamp: stamp,
		}
	}
	w := &workload{
		name: wlStateWrite, fn: stateWriteGuest.Name, guests: []guest{stateWriteGuest},
		seedTier: func(tier kvs.Store) error {
			zero := make([]byte, stateValueBytes)
			for k := 0; k < stateKeys; k++ {
				if err := tier.Set(rwKey(k), zero); err != nil {
					return err
				}
			}
			return nil
		},
		gen: func(p loadPhase, i uint64) request {
			return reqFor(int(mix64(seed, p, i, 0)%stateKeys), mix64(seed, p, i, 1))
		},
		check: func(r request, out []byte) error {
			if err := wantBytes(r, out); err != nil {
				return err
			}
			mu.Lock()
			sent[r.key][r.stamp] = true
			acked++
			mu.Unlock()
			return nil
		},
	}
	for k := 0; k < stateKeys; k++ {
		w.firstPass = append(w.firstPass, reqFor(k, mix64(seed, phaseFirstPass, uint64(k), 1)))
	}
	w.verify = func(shardAddrs []string) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		bad := 0
		var firstBad error
		note := func(format string, args ...any) {
			bad++
			if firstBad == nil {
				firstBad = fmt.Errorf(format, args...)
			}
		}
		shards := make([]*kvs.Client, len(shardAddrs))
		for i, addr := range shardAddrs {
			shards[i] = kvs.NewClient(addr)
			defer shards[i].Close()
		}
		for k := 0; k < stateKeys; k++ {
			var first []byte
			for i, sh := range shards {
				val, err := sh.Get(rwKey(k))
				if err != nil {
					return bad, fmt.Errorf("read %s from shard %s: %w", rwKey(k), shardAddrs[i], err)
				}
				if i == 0 {
					first = val
				} else if !bytes.Equal(val, first) {
					note("%s: replicas on %s and %s differ", rwKey(k), shardAddrs[0], shardAddrs[i])
				}
			}
			if len(first) != stateValueBytes {
				note("%s: %d bytes, want %d", rwKey(k), len(first), stateValueBytes)
				continue
			}
			for c := 0; c < stateChunks; c++ {
				if stamp := binary.LittleEndian.Uint64(first[c*stateChunk:]); !sent[k][stamp] {
					note("%s: chunk %d holds stamp %x, never acknowledged for this key", rwKey(k), c, stamp)
					break
				}
			}
		}
		for i, sh := range shards {
			n, err := sh.Len(logKey)
			if err != nil {
				return bad, fmt.Errorf("log length on shard %s: %w", shardAddrs[i], err)
			}
			if n != 16*acked {
				note("log on %s is %d bytes, want 16 × %d acknowledged calls", shardAddrs[i], n, acked)
			}
		}
		return bad, firstBad
	}
	return w
}

// coldRequest is the single invocation of cold function idx in a round.
func coldRequest(seed int64, round, idx int) request {
	x := uint32(mix64(seed, phaseWindow, uint64(idx), uint64(round)))
	return request{fn: coldName(round, idx), body: le32(x), want: le32(x + coldWord(x))}
}

func coldName(round, idx int) string { return fmt.Sprintf("cold-%d-%d", round, idx) }

// coldOrder is the seeded order in which a round invokes its functions: a
// Fisher–Yates shuffle driven by the generator.
func coldOrder(seed int64, round, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix64(seed, phaseWarmup, uint64(i), uint64(round)) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}
