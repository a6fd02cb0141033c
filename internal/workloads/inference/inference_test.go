package inference

import (
	"testing"
	"time"

	"faasm.dev/faasm/internal/cluster"
)

func TestModelDeterministic(t *testing.T) {
	w := GenerateWeights(1)
	img := GenerateImage(2)
	c1 := Classify(w, img)
	c2 := Classify(w, img)
	if c1 != c2 {
		t.Fatal("non-deterministic forward pass")
	}
	if c1 < 0 || c1 >= NumClasses {
		t.Fatalf("class out of range: %d", c1)
	}
}

func TestDifferentImagesSpreadAcrossClasses(t *testing.T) {
	// Weight seed 3 yields a well-spread random head (the fig7 harness uses
	// the same seed).
	w := GenerateWeights(3)
	seen := map[int]bool{}
	for s := int64(0); s < 64; s++ {
		seen[Classify(w, GenerateImage(s))] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all images map to one class (degenerate model): %v", seen)
	}
}

func TestServingOnBothPlatforms(t *testing.T) {
	w := GenerateWeights(1)
	img := GenerateImage(9)
	want := Classify(w, img)
	for _, mode := range []cluster.Mode{cluster.ModeFaasm, cluster.ModeBaseline} {
		c := cluster.New(cluster.Config{
			Mode: mode, Hosts: 2, TimeScale: 5000,
			ContainerColdStart: 2 * time.Millisecond,
		})
		if err := c.SetState(KeyWeights, w); err != nil {
			t.Fatal(err)
		}
		if err := c.Register("infer", Guest(Config{})); err != nil {
			t.Fatal(err)
		}
		out, ret, err := c.Call("infer", img)
		if err != nil || ret != 0 {
			t.Fatalf("%v infer: %d %v", mode, ret, err)
		}
		if int(out[0]) != want {
			t.Fatalf("%v classified %d, host-side says %d", mode, out[0], want)
		}
		c.Shutdown()
	}
}

func TestBadImageRejected(t *testing.T) {
	c := cluster.New(cluster.Config{Mode: cluster.ModeFaasm, Hosts: 1, TimeScale: 5000})
	defer c.Shutdown()
	c.SetState(KeyWeights, GenerateWeights(1))
	c.Register("infer", Guest(Config{}))
	_, ret, _ := c.Call("infer", []byte{1, 2, 3})
	if ret == 0 {
		t.Fatal("truncated image accepted")
	}
}

func TestComputePassesSlowExecution(t *testing.T) {
	w := GenerateWeights(1)
	img := GenerateImage(3)
	// More passes, same answer (the WASM-overhead model must not change
	// results).
	g1 := Guest(Config{ComputePasses: 1})
	g3 := Guest(Config{ComputePasses: 3})
	c := cluster.New(cluster.Config{Mode: cluster.ModeFaasm, Hosts: 1, TimeScale: 5000})
	defer c.Shutdown()
	c.SetState(KeyWeights, w)
	c.Register("g1", g1)
	c.Register("g3", g3)
	o1, _, err := c.Call("g1", img)
	if err != nil {
		t.Fatal(err)
	}
	o3, _, err := c.Call("g3", img)
	if err != nil {
		t.Fatal(err)
	}
	if o1[0] != o3[0] {
		t.Fatal("pass count changed the classification")
	}
}

func BenchmarkForwardPass(b *testing.B) {
	w := GenerateWeights(1)
	img := GenerateImage(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Classify(w, img)
	}
}
