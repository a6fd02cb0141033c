// Package upload implements the FAASM upload service of §5.2: an HTTP
// endpoint where users upload function sources. The service runs the
// trusted half of the Fig 3 pipeline — validation / code generation — and
// writes the resulting object files to the shared object store, from which
// runtime instances load them on cold starts.
//
// An object file is stored once per content key (Key), however many
// function names are uploaded with that content: each name resolves to its
// key, and a key's object is deleted when its last name moves to another.
package upload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"

	"faasm.dev/faasm/internal/fcc"
	"faasm.dev/faasm/internal/objstore"
	"faasm.dev/faasm/internal/wavm"
)

// Service is the upload endpoint.
type Service struct {
	// Deploy, when non-nil, deploys each upload under its name before its
	// object is stored; an upload it rejects is answered 422 and stores
	// nothing. key is the upload's content key, and object returns its
	// object file: the stored one if key has one, else Codegen's. A deployer
	// that already holds key's image need not call it, and the upload then
	// runs no code generation.
	Deploy func(name, key string, object func() ([]byte, error)) error

	store *objstore.Store
	mux   *http.ServeMux
	ln    net.Listener
	srv   *http.Server

	// mu guards names (function name → content key of its last upload) and
	// refs (content key → names on it plus uploads of it in flight). A key's
	// object is stored while its count is above zero.
	mu    sync.Mutex
	names map[string]string
	refs  map[string]int
}

// New creates a service over the given object store.
func New(store *objstore.Store) *Service {
	s := &Service{
		store: store,
		mux:   http.NewServeMux(),
		names: map[string]string{},
		refs:  map[string]int{},
	}
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

// objectKey names the object file of content key in the store.
func objectKey(key string) string { return "wasm/sha256/" + key }

// Key is an upload's content key: the hex SHA-256 of everything Codegen
// reads — its dialect, a zero byte, and the source. Uploads with one key
// share one object file and, on a runtime instance, one image, so the key
// must be collision-resistant: a collision would run one tenant's code
// under another's name.
func Key(lang string, src []byte) string {
	h := sha256.New()
	h.Write([]byte(dialect(lang)))
	h.Write([]byte{0})
	h.Write(src)
	return hex.EncodeToString(h.Sum(nil))
}

// dialect is what Codegen reads of lang: "fc" compiles FC, anything else
// assembles the wat-like text format.
func dialect(lang string) string {
	if lang == "fc" {
		return "fc"
	}
	return "wat"
}

// maxSource caps an upload's source; a longer body is refused with 413.
const maxSource = 8 << 20

// sourcePresize is the most a declared Content-Length reserves before any
// body byte has arrived; a longer body grows the buffer as it comes in.
const sourcePresize = 1 << 20

// readSource reads an upload's body into a buffer sized from its declared
// Content-Length. A body over maxSource fails with *http.MaxBytesError.
func readSource(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxSource {
		return nil, &http.MaxBytesError{Limit: maxSource}
	}
	// ContentLength is -1 for a chunked body. The spare MinRead is what
	// ReadFrom wants free before the read that finds EOF.
	size := min(max(r.ContentLength, 0), sourcePresize) + bytes.MinRead
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxSource))
	return buf.Bytes(), err
}

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
		src, err := readSource(w, r)
		if err != nil {
			status := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		lang := r.URL.Query().Get("lang")
		key := Key(lang, src)
		if status, err := s.put(name, key, lang, src); err != nil {
			http.Error(w, err.Error(), status)
			return
		}
		fmt.Fprintf(w, "deployed %s: sha256 %s\n", name, key)
	case http.MethodGet:
		s.mu.Lock()
		key, ok := s.names[name]
		var obj []byte
		if ok {
			obj, ok = s.store.Get(objectKey(key))
		}
		s.mu.Unlock()
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

// put deploys and stores src as name's function, returning the HTTP status
// of a failure. Code generation runs only when neither the deployer nor the
// store holds the object of src's key. A failed upload stores nothing and
// leaves name on its previous key.
func (s *Service) put(name, key, lang string, src []byte) (int, error) {
	// The upload holds a reference of its own, so key's object is not
	// deleted while it runs.
	s.mu.Lock()
	s.refs[key]++
	s.mu.Unlock()
	var generated []byte
	var codegenErr error
	object := func() ([]byte, error) {
		if obj, ok := s.store.Get(objectKey(key)); ok {
			return obj, nil
		}
		generated, codegenErr = Codegen(string(src), lang)
		return generated, codegenErr
	}
	var err error
	if s.Deploy != nil {
		err = s.Deploy(name, key, object)
	} else {
		_, err = object()
	}
	switch {
	case codegenErr != nil:
		s.unref(key)
		return http.StatusUnprocessableEntity, codegenErr
	case err != nil:
		s.unref(key)
		return http.StatusUnprocessableEntity, fmt.Errorf("upload: deploy %s: %w", name, err)
	}
	if generated != nil {
		if err := s.store.Put(objectKey(key), generated); err != nil {
			s.unref(key)
			return http.StatusInternalServerError, err
		}
	}
	// The upload's reference becomes name's, and name's old key loses one.
	s.mu.Lock()
	old, had := s.names[name]
	s.names[name] = key
	s.mu.Unlock()
	if had {
		s.unref(old)
	}
	return http.StatusOK, nil
}

// unref drops one reference to key, deleting its object with the last.
func (s *Service) unref(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refs[key]--; s.refs[key] > 0 {
		return
	}
	delete(s.refs, key)
	s.store.Delete(objectKey(key))
}

// Codegen runs the trusted code-generation phase on uploaded source:
// lang "fc" compiles FC, anything else assembles the wat-like text format.
// The returned bytes are a validated object file.
func Codegen(src, lang string) ([]byte, error) {
	var mod *wavm.Module
	var err error
	if dialect(lang) == "fc" {
		mod, err = fcc.CompileAndValidate(src)
	} else {
		mod, err = wavm.AssembleAndValidate(src)
	}
	if err != nil {
		return nil, fmt.Errorf("upload: code generation failed: %w", err)
	}
	return wavm.EncodeObject(mod)
}
