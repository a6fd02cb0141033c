// Package ddo implements distributed data objects (§4.1): language-level
// classes that hide the two-tier state architecture behind convenient
// types. Each DDO wraps one state key and chooses its own consistency
// strategy — chunked pulls for read-only sparse matrices, delayed pushes
// for the asynchronous vector of Listing 1, atomic global appends for
// lists.
//
// DDOs are written against hostapi.API, so the same application code runs
// on FAASM (zero-copy shared views) and on the container baseline (private
// copies) — the paper's evaluation methodology.
package ddo

import (
	"encoding/binary"
	"fmt"
	"math"

	"faasm.dev/faasm/internal/hostapi"
)

// Vector is a dense float64 vector in state. Writes are local; Push
// publishes to the global tier (VectorAsync of Listing 1 pushes
// sporadically, trading consistency for performance — HOGWILD tolerates
// it).
type Vector struct {
	api hostapi.API
	key string
	n   int
	buf []byte
}

// OpenVector binds a vector of n float64s (creating it locally if absent).
func OpenVector(api hostapi.API, key string, n int) (*Vector, error) {
	buf, err := api.StateView(key, n*8)
	if err != nil {
		return nil, fmt.Errorf("ddo: vector %s: %w", key, err)
	}
	return &Vector{api: api, key: key, n: n, buf: buf}, nil
}

// At reads element i.
func (v *Vector) At(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.buf[i*8:]))
}

// Set writes element i locally.
func (v *Vector) Set(i int, x float64) {
	binary.LittleEndian.PutUint64(v.buf[i*8:], math.Float64bits(x))
}

// Add accumulates into element i locally (the HOGWILD unsynchronised
// update: races between co-located workers are tolerated by design).
func (v *Vector) Add(i int, dx float64) {
	v.Set(i, v.At(i)+dx)
}

// Push publishes the local replica to the global tier (VectorAsync.push).
func (v *Vector) Push() error { return v.api.StatePush(v.key) }

// SparseMatrix is a read-only CSC (compressed sparse column) matrix over
// three state keys: key/vals (f64), key/rows (i32), key/colptr (i64,
// len cols+1). Column-range access pulls only the covering chunks of each
// array — the SparseMatrixReadOnly of Listing 1.
type SparseMatrix struct {
	api  hostapi.API
	key  string
	cols int

	colptr []byte // pulled eagerly: it is small and needed for addressing
}

// SparseKeys returns the three state keys for a sparse matrix.
func SparseKeys(key string) (vals, rows, colptr string) {
	return key + "/vals", key + "/rows", key + "/colptr"
}

// OpenSparseMatrix binds a CSC matrix with the given column count.
func OpenSparseMatrix(api hostapi.API, key string, cols int) (*SparseMatrix, error) {
	_, _, cpKey := SparseKeys(key)
	colptr, err := api.StateViewChunk(cpKey, 0, (cols+1)*8)
	if err != nil {
		return nil, fmt.Errorf("ddo: sparse %s colptr: %w", key, err)
	}
	return &SparseMatrix{api: api, key: key, cols: cols, colptr: colptr}, nil
}

// colRangePtr returns the value-array index range for columns [a, b).
func (sm *SparseMatrix) colRangePtr(a, b int) (int, int) {
	lo := int(binary.LittleEndian.Uint64(sm.colptr[a*8:]))
	hi := int(binary.LittleEndian.Uint64(sm.colptr[b*8:]))
	return lo, hi
}

// Columns pulls columns [a, b) and returns an iterator view. Only the
// chunks of vals/rows covering those columns transfer.
func (sm *SparseMatrix) Columns(a, b int) (*SparseColumns, error) {
	if a < 0 || b > sm.cols || a >= b {
		return nil, fmt.Errorf("ddo: sparse %s columns [%d,%d) out of range", sm.key, a, b)
	}
	lo, hi := sm.colRangePtr(a, b)
	valsKey, rowsKey, _ := SparseKeys(sm.key)
	vals, err := sm.api.StateViewChunk(valsKey, lo*8, (hi-lo)*8)
	if err != nil {
		return nil, err
	}
	rows, err := sm.api.StateViewChunk(rowsKey, lo*4, (hi-lo)*4)
	if err != nil {
		return nil, err
	}
	return &SparseColumns{sm: sm, first: a, last: b, lo: lo, vals: vals, rows: rows}, nil
}

// SparseColumns is a pulled window of CSC columns.
type SparseColumns struct {
	sm          *SparseMatrix
	first, last int
	lo          int
	vals        []byte
	rows        []byte
}

// Col invokes f for every stored (row, value) of absolute column j.
func (sc *SparseColumns) Col(j int, f func(row int, val float64)) {
	lo, hi := sc.sm.colRangePtr(j, j+1)
	for k := lo; k < hi; k++ {
		rel := k - sc.lo
		row := int(binary.LittleEndian.Uint32(sc.rows[rel*4:]))
		val := math.Float64frombits(binary.LittleEndian.Uint64(sc.vals[rel*8:]))
		f(row, val)
	}
}

// BuildSparseCSC encodes a sparse matrix into the three state blobs.
// entries[j] lists (row, val) pairs of column j.
func BuildSparseCSC(entries [][]SparseEntry) (vals, rows, colptr []byte) {
	var nnz int
	for _, col := range entries {
		nnz += len(col)
	}
	vals = make([]byte, nnz*8)
	rows = make([]byte, nnz*4)
	colptr = make([]byte, (len(entries)+1)*8)
	k := 0
	for j, col := range entries {
		binary.LittleEndian.PutUint64(colptr[j*8:], uint64(k))
		for _, e := range col {
			binary.LittleEndian.PutUint64(vals[k*8:], math.Float64bits(e.Val))
			binary.LittleEndian.PutUint32(rows[k*4:], uint32(e.Row))
			k++
		}
	}
	binary.LittleEndian.PutUint64(colptr[len(entries)*8:], uint64(k))
	return vals, rows, colptr
}

// SparseEntry is one stored cell.
type SparseEntry struct {
	Row int
	Val float64
}

// List is an append-only distributed list of byte records (eventually
// consistent appends, the delayed-update list of §4.1). Records are
// length-prefixed in one global value.
type List struct {
	api hostapi.API
	key string
}

// OpenList binds a list.
func OpenList(api hostapi.API, key string) *List {
	return &List{api: api, key: key}
}

// Append adds one record (atomic in the global tier).
func (l *List) Append(rec []byte) error {
	buf := make([]byte, 4+len(rec))
	binary.LittleEndian.PutUint32(buf, uint32(len(rec)))
	copy(buf[4:], rec)
	return l.api.StateAppend(l.key, buf)
}

// All reads every record.
func (l *List) All() ([][]byte, error) {
	raw, err := l.api.StateReadAll(l.key)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for off := 0; off+4 <= len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		if off+n > len(raw) {
			return nil, fmt.Errorf("ddo: list %s corrupt at %d", l.key, off)
		}
		out = append(out, append([]byte(nil), raw[off:off+n]...))
		off += n
	}
	return out, nil
}
