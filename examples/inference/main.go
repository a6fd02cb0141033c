// Inference: latency-sensitive model serving with Proto-Faaslet restores
// (§6.3). The model's weights load once per host through the state tier;
// each "user" gets a fresh function instance whose cold start is a
// sub-millisecond snapshot restore rather than a multi-second container
// boot.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"faasm.dev/faasm"
)

const (
	dim        = 64 // weights: dim×dim dense layer
	numClasses = 10
)

func main() {
	rt := faasm.NewRuntime(faasm.Config{Host: "serving"})
	defer rt.Shutdown()

	// Deploy the model weights to the global tier.
	rng := rand.New(rand.NewSource(3))
	weights := make([]byte, dim*numClasses*8)
	for i := 0; i < dim*numClasses; i++ {
		binary.LittleEndian.PutUint64(weights[i*8:], math.Float64bits(rng.NormFloat64()))
	}
	if err := rt.SetState("model", weights); err != nil {
		log.Fatal(err)
	}

	infer := func(ctx *faasm.Ctx) (int32, error) {
		w, err := ctx.StateView("model", len(weights)) // zero-copy shared view
		if err != nil {
			return 1, err
		}
		img := ctx.Input()
		best, bestScore := 0, math.Inf(-1)
		for k := 0; k < numClasses; k++ {
			var acc float64
			for i := 0; i < dim && i < len(img); i++ {
				wv := math.Float64frombits(binary.LittleEndian.Uint64(w[(k*dim+i)*8:]))
				acc += wv * float64(img[i])
			}
			if acc > bestScore {
				best, bestScore = k, acc
			}
		}
		ctx.WriteOutput([]byte{byte(best)})
		return 0, nil
	}
	// Deployment builds the function's Proto-Faaslet once; every new
	// instance restores from it instead of initialising from scratch.
	if err := rt.RegisterNative("infer", infer); err != nil {
		log.Fatal(err)
	}

	// Serve a burst of requests from "different users" and time them.
	var worst, total time.Duration
	const requests = 200
	for i := 0; i < requests; i++ {
		img := make([]byte, dim)
		rng.Read(img)
		start := time.Now()
		out, ret, err := rt.Call("infer", img)
		lat := time.Since(start)
		if err != nil || ret != 0 {
			log.Fatalf("request %d failed: ret=%d err=%v", i, ret, err)
		}
		if lat > worst {
			worst = lat
		}
		total += lat
		if i < 3 {
			fmt.Printf("request %d → class %d in %v\n", i, out[0], lat)
		}
	}
	stats := rt.Stats()
	fmt.Printf("\n%d requests: mean %v, worst %v\n", requests, total/requests, worst)
	fmt.Printf("cold starts %d (each a proto restore), warm hits %d\n",
		stats.ColdStarts, stats.WarmStarts)
}
