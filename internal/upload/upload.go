// Package upload implements the FAASM upload service of §5.2: an HTTP
// endpoint where users upload function sources. The service runs the
// trusted half of the Fig 3 pipeline — validation / code generation — and
// writes the resulting object files to the shared object store, from which
// runtime instances load them on cold starts.
package upload

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"faasm.dev/faasm/internal/fcc"
	"faasm.dev/faasm/internal/objstore"
	"faasm.dev/faasm/internal/wavm"
)

// Service is the upload endpoint.
type Service struct {
	// Deploy, when non-nil, deploys each generated object under its name
	// before it is stored; an upload it rejects is answered 422 and stores
	// nothing.
	Deploy func(name string, obj []byte) error

	store *objstore.Store
	mux   *http.ServeMux
	ln    net.Listener
	srv   *http.Server
}

// New creates a service over the given object store.
func New(store *objstore.Store) *Service {
	s := &Service{store: store, mux: http.NewServeMux()}
	s.mux.HandleFunc("/f/", s.handleFunction)
	s.mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Store exposes the backing object store.
func (s *Service) Store() *objstore.Store { return s.store }

// Handler returns the HTTP handler (for embedding in faasmd).
func (s *Service) Handler() http.Handler { return s.mux }

// Listen starts serving on addr, returning the bound address.
func (s *Service) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener.
func (s *Service) Close() error {
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// objectKey names a function's object file in the store.
func objectKey(name string) string { return "wasm/" + name + "/function.o" }

// handleFunction implements PUT /f/<name> (upload + codegen) and
// GET /f/<name> (fetch object file).
func (s *Service) handleFunction(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/f/")
	if name == "" || strings.Contains(name, "/") {
		http.Error(w, "bad function name", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		src, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		obj, err := Codegen(string(src), r.URL.Query().Get("lang"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		if s.Deploy != nil {
			if err := s.Deploy(name, obj); err != nil {
				http.Error(w, fmt.Sprintf("upload: deploy %s: %v", name, err), http.StatusUnprocessableEntity)
				return
			}
		}
		if err := s.store.Put(objectKey(name), obj); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "generated %d-byte object for %s\n", len(obj), name)
	case http.MethodGet:
		obj, ok := s.store.Get(objectKey(name))
		if !ok {
			http.Error(w, "unknown function", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(obj)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// Codegen runs the trusted code-generation phase on uploaded source:
// lang "fc" compiles FC, anything else assembles the wat-like text format.
// The returned bytes are a validated object file.
func Codegen(src, lang string) ([]byte, error) {
	var mod *wavm.Module
	var err error
	if lang == "fc" {
		mod, err = fcc.CompileAndValidate(src)
	} else {
		mod, err = wavm.AssembleAndValidate(src)
	}
	if err != nil {
		return nil, fmt.Errorf("upload: code generation failed: %w", err)
	}
	return wavm.EncodeObject(mod)
}
