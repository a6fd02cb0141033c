// Wordcount: map/reduce with shared state — mappers read document chunks
// from the read-global filesystem, emit partial counts into the append-only
// results log, and a reducer folds them, all through chained functions.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"sort"
	"strings"

	"faasm.dev/faasm"
	"faasm.dev/faasm/ddo"
)

var documents = map[string][]byte{
	"docs/a.txt": []byte("the quick brown fox jumps over the lazy dog"),
	"docs/b.txt": []byte("the dog barks and the fox runs away over the hill"),
	"docs/c.txt": []byte("a lazy afternoon the dog sleeps the fox dreams"),
}

func main() {
	rt := faasm.NewRuntime(faasm.Config{Host: "wordcount", Files: documents})
	defer rt.Shutdown()

	// Mapper: read one document through the Faaslet filesystem, count its
	// words, append the partial result to the shared log.
	rt.RegisterNative("map", func(ctx *faasm.Ctx) (int32, error) {
		doc, err := ctx.FS().ReadFile(string(ctx.Input()))
		if err != nil {
			return 1, err
		}
		counts := map[string]int{}
		for _, w := range strings.Fields(string(doc)) {
			counts[w]++
		}
		blob, err := json.Marshal(counts)
		if err != nil {
			return 2, err
		}
		return 0, ddo.OpenList(ctx, "partials").Append(blob) // a Ctx is an API
	})

	// Reducer: fold every partial count.
	rt.RegisterGuest("reduce", func(api faasm.API) (int32, error) {
		parts, err := ddo.OpenList(api, "partials").All()
		if err != nil {
			return 1, err
		}
		total := map[string]int{}
		for _, p := range parts {
			var counts map[string]int
			if err := json.Unmarshal(p, &counts); err != nil {
				return 2, err
			}
			for w, c := range counts {
				total[w] += c
			}
		}
		blob, err := json.Marshal(total)
		if err != nil {
			return 3, err
		}
		api.WriteOutput(blob)
		return 0, nil
	})

	// Driver: chain one mapper per document, then the reducer.
	rt.RegisterGuest("driver", func(api faasm.API) (int32, error) {
		var ids []uint64
		for path := range documents {
			id, err := api.Chain("map", []byte(path))
			if err != nil {
				return 1, err
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if ret, err := api.Await(id); err != nil || ret != 0 {
				return 2, fmt.Errorf("mapper failed: %d %v", ret, err)
			}
		}
		id, err := api.Chain("reduce", nil)
		if err != nil {
			return 3, err
		}
		if _, err := api.Await(id); err != nil {
			return 4, err
		}
		out, err := api.OutputOf(id)
		if err != nil {
			return 5, err
		}
		api.WriteOutput(out)
		return 0, nil
	})

	out, ret, err := rt.Call("driver", nil)
	if err != nil || ret != 0 {
		log.Fatalf("wordcount failed: ret=%d err=%v", ret, err)
	}
	var counts map[string]int
	json.Unmarshal(out, &counts)
	type wc struct {
		w string
		c int
	}
	var sorted []wc
	for w, c := range counts {
		sorted = append(sorted, wc{w, c})
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].c != sorted[j].c {
			return sorted[i].c > sorted[j].c
		}
		return sorted[i].w < sorted[j].w
	})
	fmt.Printf("%d documents, %d distinct words; top 5:\n", len(documents), len(counts))
	for i := 0; i < 5 && i < len(sorted); i++ {
		fmt.Printf("  %-10s %d\n", sorted[i].w, sorted[i].c)
	}
}
