// Command faasmd runs one FAASM runtime instance as an HTTP server: the
// deployable unit of Fig 5. It serves function invocation, the upload
// service (Fig 3's trusted code-generation phase), and status endpoints,
// and optionally connects to a shared kvs global tier so multiple faasmd
// processes form a cluster.
//
//	faasmd -listen :8090                           # standalone, in-process tier
//	faasmd -listen :8090 -state 10.0.0.5:6500      # join a shared global tier
//	faasmd -listen :8090 -state a:6500,b:6500      # sharded global tier (ring)
//	faasmd -kvs :6500                              # also serve one tier shard
//	faasmd -elastic-pool -pool-idle-timeout 30s    # autoscale warm pools
//	faasmd -trace-sample 1                         # trace every invocation
//
// Every flag binds into the config of the package it tunes (flags.go), and
// the README's "Operating faasmd" section documents each knob and when to
// change it; -help prints every default.
//
// Endpoints:
//
//	PUT  /f/<name>?lang=fc|wat   upload source (≤ 8 MiB, else 413); codegen; deploy
//	POST /invoke/<name>          body = input (≤ 32 MiB, else 413), response = output
//	POST /invoke/<name>?async=1  enqueue durably (-async-queue); 202 + call id
//	GET  /call/<id>              a queued call's terminal result as JSON
//	GET  /status                 runtime counters
//	GET  /metrics                Prometheus text exposition
//	GET  /trace/<id>             one invocation trace as JSON
//	GET  /traces?slowest=N       the N slowest retained traces
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/queue"
	"faasm.dev/faasm/internal/shardkvs"
	"faasm.dev/faasm/internal/upload"
)

func main() {
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}

	var store kvs.Store
	var served *kvs.Engine
	var localEngine *kvs.Engine // in-process tier engine, if this process owns one
	newEngine := func() *kvs.Engine {
		eng := kvs.NewEngine()
		eng.SetSweepInterval(cfg.expirySweep)
		return eng
	}
	if cfg.kvsListen != "" {
		served = newEngine()
		localEngine = served
		srv, err := kvs.NewServer(served, cfg.kvsListen)
		if err != nil {
			log.Fatalf("kvs listen: %v", err)
		}
		log.Printf("global tier shard serving on %s", srv.Addr())
	}
	newClient := func(addr string) *kvs.Client {
		c := kvs.NewClient(addr)
		c.DialTimeout, c.Retry = cfg.dialTimeout, cfg.retry
		return c
	}
	var ring *shardkvs.Ring
	switch addrs := shardkvs.SplitEndpoints(cfg.state); {
	case len(addrs) > 1:
		cfg.ring.NewStore = func(addr string) kvs.Store { return newClient(addr) }
		ring, err = shardkvs.AttachRemote(addrs, cfg.ring)
		if err != nil {
			log.Fatalf("state tier: %v", err)
		}
		// Fail fast on unreachable shards rather than limping into traffic.
		if err := ring.Probe(); err != nil {
			log.Fatalf("state tier: %v", err)
		}
		log.Printf("global tier sharded across %d endpoints (replication %d, write quorum %d)", len(addrs), cfg.ring.Replication, cfg.ring.WriteQuorum)
		store = ring
	case len(addrs) == 1:
		store = newClient(addrs[0])
	case served != nil:
		store = served
	default:
		localEngine = newEngine()
		store = localEngine
	}

	cfg.runtime.Store = store
	inst := frt.New(cfg.runtime)
	if localEngine != nil {
		localEngine.Instrument(inst.Registry(), "global")
	}
	if ring != nil {
		ring.Instrument(inst.Registry())
	}

	srv := newServer(cfg.listen, newMux(inst, ring))
	log.Printf("faasmd %s listening on %s", inst.Host(), cfg.listen)
	log.Fatal(srv.ListenAndServe())
}

// Connection timeouts. A client gets readHeaderTimeout to send a request's
// headers and an idle keep-alive connection is closed after idleTimeout, so
// stalled or abandoned connections cannot pile up. Bodies are not bounded:
// an input may legitimately stream for longer.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer is the daemon's HTTP server for handler on addr.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Body caps. A call's input or an upload's source over its cap is refused
// with 413, whether its length is declared or it streams past the cap.
const (
	maxInput  = 32 << 20
	maxSource = 8 << 20
)

// bodyPresize is the most a declared Content-Length reserves before any
// body byte has arrived; a longer body grows the buffer as it comes in.
const bodyPresize = 1 << 20

// readBody reads r's body to EOF into a buffer sized from the declared
// Content-Length, so the common small body is read without regrowing and a
// client cannot pin memory it has only announced. A body over limit is
// refused before any of it is read when its length is declared, and once
// it streams past limit otherwise. On failure readBody has answered w (413
// for a body over limit, else 400) and returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.ContentLength > limit {
		http.Error(w, (&http.MaxBytesError{Limit: limit}).Error(), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	// ContentLength is -1 for a chunked body. The spare MinRead is what
	// ReadFrom wants free before the read that finds EOF.
	size := min(max(r.ContentLength, 0), bodyPresize) + bytes.MinRead
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return nil, false
	}
	return buf.Bytes(), true
}

// newMux wires the daemon's HTTP surface over a runtime instance. Factored
// from main so tests drive the real handlers through httptest. ring is the
// sharded tier when one is attached (nil otherwise); /status reports its
// per-shard health.
func newMux(inst *frt.Instance, ring *shardkvs.Ring) *http.ServeMux {
	mux := http.NewServeMux()
	// An upload deploys before it answers. Code generation runs only when
	// inst holds no image of the source's content key; an upload that
	// cannot be generated or started adds no image and leaves name's
	// earlier version serving.
	mux.HandleFunc("/f/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		name := strings.TrimPrefix(r.URL.Path, "/f/")
		if name == "" || strings.Contains(name, "/") {
			http.Error(w, "bad function name", http.StatusBadRequest)
			return
		}
		src, ok := readBody(w, r, maxSource)
		if !ok {
			return
		}
		lang := r.URL.Query().Get("lang")
		key := upload.Key(lang, src)
		if err := inst.DeployObject(name, key, func() ([]byte, error) {
			return upload.Codegen(string(src), lang)
		}); err != nil {
			http.Error(w, fmt.Sprintf("deploy %s: %v", name, err), http.StatusUnprocessableEntity)
			return
		}
		log.Printf("deployed %s", name)
		fmt.Fprintf(w, "deployed %s: sha256 %s\n", name, key)
	})
	mux.HandleFunc("/invoke/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/invoke/")
		input, ok := readBody(w, r, maxInput)
		if !ok {
			return
		}
		if r.URL.RawQuery != "" && r.URL.Query().Get("async") == "1" {
			id, err := inst.InvokeAsync(name, input)
			switch {
			case errors.Is(err, queue.ErrQueueFull):
				http.Error(w, err.Error(), http.StatusTooManyRequests)
				return
			case errors.Is(err, frt.ErrAsyncDisabled):
				http.Error(w, err.Error(), http.StatusNotImplemented)
				return
			case err != nil:
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("X-Faasm-Call-ID", strconv.FormatUint(id, 10))
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, "%d\n", id)
			return
		}
		out, ret, trace, err := inst.CallTraced(name, input)
		if trace != 0 {
			w.Header().Set("X-Faasm-Trace", strconv.FormatUint(uint64(trace), 10))
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("call failed (ret=%d): %v", ret, err), http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-Faasm-Return-Code", strconv.Itoa(int(ret)))
		w.Write(out)
	})
	mux.HandleFunc("/call/", func(w http.ResponseWriter, r *http.Request) {
		idStr := strings.TrimPrefix(r.URL.Path, "/call/")
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad call id %q", idStr), http.StatusBadRequest)
			return
		}
		q := inst.Queue()
		if q == nil {
			http.Error(w, frt.ErrAsyncDisabled.Error(), http.StatusNotImplemented)
			return
		}
		rec, ok, err := q.Result(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			http.Error(w, fmt.Sprintf("call %d has no result yet", id), http.StatusNotFound)
			return
		}
		writeJSON(w, rec)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "host: %s\nfunctions: %v\nimages: %d\nfaaslets: %d\ncold: %d warm: %d\nmedian exec: %v\n",
			inst.Host(), inst.Functions(), inst.Images(), inst.FaasletCount(),
			inst.ColdStarts.Value(), inst.WarmStarts.Value(), inst.MedianExec())
		fmt.Fprintf(w, "pool misses: %d prewarmed: %d idle reclaims: %d\n",
			inst.PoolMisses.Value(), inst.Prewarmed.Value(), inst.IdleReclaims.Value())
		sc := inst.Scheduler()
		fmt.Fprintf(w, "locality: hits %d misses %d saved %d bytes\n",
			sc.Stats.LocalityHits.Load(), sc.Stats.LocalityMisses.Load(), sc.Stats.LocalitySavedBytes.Load())
		if res := inst.Residency(); len(res) > 0 {
			fns := make([]string, 0, len(res))
			for fn := range res {
				fns = append(fns, fn)
			}
			sort.Strings(fns)
			for _, fn := range fns {
				fmt.Fprintf(w, "resident %s: %d bytes\n", fn, res[fn])
			}
		}
		if q := inst.Queue(); q != nil {
			st := q.Stats()
			fmt.Fprintf(w, "queue: enqueued %d redelivered %d dead-lettered %d\n",
				st.Enqueued, st.Redelivered, st.DeadLettered)
			for _, fn := range q.Functions() {
				if d, err := q.Depth(fn); err == nil {
					fmt.Fprintf(w, "queue depth %s: %d\n", fn, d)
				}
			}
		}
		if ring != nil {
			st := ring.FailureStats()
			fmt.Fprintf(w, "state tier: failovers %d divergent %d repairs %d\n",
				st.Failovers, st.Divergence, st.Repairs)
			for _, h := range ring.Health() {
				if h.Suspect {
					fmt.Fprintf(w, "shard %s: SUSPECT for %v (%d failures)\n", h.ID, h.Down.Round(time.Millisecond), h.Failures)
				} else {
					fmt.Fprintf(w, "shard %s: in-sync (%d failures)\n", h.ID, h.Failures)
				}
			}
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := inst.Registry().WritePrometheus(w); err != nil {
			log.Printf("metrics: %v", err)
		}
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		idStr := strings.TrimPrefix(r.URL.Path, "/trace/")
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad trace id %q", idStr), http.StatusBadRequest)
			return
		}
		snap, ok := inst.Tracer().Get(obsv.TraceID(id))
		if !ok {
			http.Error(w, fmt.Sprintf("trace %d not retained", id), http.StatusNotFound)
			return
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		n := 10
		if s := r.URL.Query().Get("slowest"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				http.Error(w, fmt.Sprintf("bad slowest %q", s), http.StatusBadRequest)
				return
			}
			n = v
		}
		writeJSON(w, inst.Tracer().Slowest(n))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("json: %v", err)
	}
}
