package main

import (
	"bytes"
	"crypto/sha256"
	"sort"
	"testing"
)

// streamDigest hashes the first n requests of a workload's window stream.
func streamDigest(t *testing.T, name string, seed int64, n int) [32]byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range w.firstPass {
		h.Write([]byte(r.fn))
		h.Write(r.body)
		h.Write(r.want)
	}
	for i := 0; i < n; i++ {
		r := w.gen(phaseWindow, uint64(i))
		h.Write([]byte(r.fn))
		h.Write(r.body)
		h.Write(r.want)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// Same seed, byte-identical request stream; another seed, another stream
// (except compute_2mm, which takes no input).
func TestGeneratorIsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		if name == wlCold {
			continue
		}
		a, b := streamDigest(t, name, 7, 500), streamDigest(t, name, 7, 500)
		if a != b {
			t.Errorf("%s: the same seed gave two different streams", name)
		}
		if c := streamDigest(t, name, 8, 500); c == a && name != wlCompute {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
	for i := 0; i < 100; i++ {
		a, b := coldRequest(7, 2, i), coldRequest(7, 2, i)
		if a.fn != b.fn || !bytes.Equal(a.body, b.body) || !bytes.Equal(a.want, b.want) {
			t.Fatalf("cold request %d differs between calls", i)
		}
	}
	if bytes.Equal(coldRequest(7, 2, 1).body, coldRequest(8, 2, 1).body) {
		t.Error("cold requests ignore the seed")
	}
	if !bytes.Equal(seededValue(7, 3), seededValue(7, 3)) || bytes.Equal(seededValue(7, 3), seededValue(7, 4)) {
		t.Error("seeded state values are not a function of (seed, key)")
	}
}

// The warm-up and the window must not replay each other's requests.
func TestPhasesDiffer(t *testing.T) {
	w, err := newWorkload(wlWarmEcho, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(w.gen(phaseWarmup, 0).body, w.gen(phaseWindow, 0).body) {
		t.Error("warm-up and window share request 0")
	}
}

func TestColdOrderIsASeededPermutation(t *testing.T) {
	a, b := coldOrder(3, 0, coldFunctions), coldOrder(3, 0, coldFunctions)
	sorted := append([]int(nil), a...)
	sort.Ints(sorted)
	moved := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed and round, different order")
		}
		if sorted[i] != i {
			t.Fatalf("not a permutation: position %d holds %d", i, sorted[i])
		}
		if a[i] != i {
			moved++
		}
	}
	if moved < coldFunctions/2 {
		t.Errorf("only %d of %d functions moved", moved, coldFunctions)
	}
	c := coldOrder(3, 1, coldFunctions)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > coldFunctions/10 {
		t.Errorf("rounds 0 and 1 agree on %d positions", same)
	}
}

// The first pass must touch every state key, so that no request of the
// measured window is the first to pull or map its value.
func TestFirstPassCoversEveryKey(t *testing.T) {
	for _, name := range []string{wlStateRead, wlStateWrite} {
		w, err := newWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range w.firstPass {
			key := r.body
			if name == wlStateWrite {
				key = r.body[8:]
			}
			seen[string(key)] = true
		}
		if len(seen) != stateKeys {
			t.Errorf("%s: first pass touches %d of %d keys", name, len(seen), stateKeys)
		}
		picked := map[string]bool{}
		for i := 0; i < 2000; i++ {
			r := w.gen(phaseWindow, uint64(i))
			key := r.body
			if name == wlStateWrite {
				key = r.body[8:]
			}
			if !seen[string(key)] {
				t.Fatalf("%s: request %d uses key %q, which the first pass skipped", name, i, key)
			}
			picked[string(key)] = true
		}
		if len(picked) != stateKeys {
			t.Errorf("%s: 2000 requests reach %d of %d keys", name, len(picked), stateKeys)
		}
	}
}
