// Package dmatmul implements the distributed divide-and-conquer matrix
// multiplication of §6.4: the multiplication is subdivided into submatrix
// multiplications whose partial products are merged into the result, all
// implemented by chaining serverless functions. At the paper's depth the
// decomposition yields 64 multiplication functions plus merge functions per
// multiplication. Matrices live in two-tier state; leaf multiplications
// pull only the chunks covering their operand blocks and push partial
// products, and merge functions sum partial products into the result.
package dmatmul

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"faasm.dev/faasm/internal/hostapi"
)

// State keys.
const (
	KeyA = "mm/A"
	KeyB = "mm/B"
	KeyC = "mm/C"
)

// tmpKey names a partial-product block.
func tmpKey(id int32) string { return fmt.Sprintf("mm/tmp/%d", id) }

// Params sizes a multiplication.
type Params struct {
	N     int // matrix dimension
	Depth int // grid = 2^Depth per side; depth 2 → 4×4×4 = 64 leaf multiplies
	Seed  int64
}

// Generate builds two random N×N matrices (row-major float64 blobs).
func Generate(p Params) (a, b []byte) {
	rng := rand.New(rand.NewSource(p.Seed))
	mk := func() []byte {
		buf := make([]byte, p.N*p.N*8)
		for i := 0; i < p.N*p.N; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(rng.Float64()))
		}
		return buf
	}
	return mk(), mk()
}

// Seeder abstracts global-tier setup.
type Seeder interface {
	SetState(key string, val []byte) error
}

// Seed loads operands and a zeroed result.
func Seed(s Seeder, p Params, a, b []byte) error {
	if err := s.SetState(KeyA, a); err != nil {
		return err
	}
	if err := s.SetState(KeyB, b); err != nil {
		return err
	}
	return s.SetState(KeyC, make([]byte, p.N*p.N*8))
}

// multInput tasks one leaf multiplication: tmp[Out] = A(I,K) × B(K,J),
// blocks of size S on the G×G grid of an N×N matrix.
type multInput struct {
	N, S, I, J, K, Out int32
}

func encodeMult(m multInput) []byte {
	b := make([]byte, 24)
	for i, v := range []int32{m.N, m.S, m.I, m.J, m.K, m.Out} {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	return b
}

func decodeMult(b []byte) (multInput, error) {
	if len(b) != 24 {
		return multInput{}, fmt.Errorf("dmatmul: bad mult input (%d bytes)", len(b))
	}
	var vs [6]int32
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return multInput{N: vs[0], S: vs[1], I: vs[2], J: vs[3], K: vs[4], Out: vs[5]}, nil
}

// mergeInput tasks one merge: C block (I,J) = Σ tmp[Base+k], k < Count.
type mergeInput struct {
	N, S, I, J, Base, Count int32
}

func encodeMerge(m mergeInput) []byte {
	b := make([]byte, 24)
	for i, v := range []int32{m.N, m.S, m.I, m.J, m.Base, m.Count} {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	return b
}

func decodeMerge(b []byte) (mergeInput, error) {
	if len(b) != 24 {
		return mergeInput{}, fmt.Errorf("dmatmul: bad merge input (%d bytes)", len(b))
	}
	var vs [6]int32
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return mergeInput{N: vs[0], S: vs[1], I: vs[2], J: vs[3], Base: vs[4], Count: vs[5]}, nil
}

// readBlock pulls an s×s block at block coords (bi, bj) of an N×N
// row-major matrix, chunk row by chunk row.
func readBlock(api hostapi.API, key string, n, bi, bj, s int) ([]float64, error) {
	out := make([]float64, s*s)
	for i := 0; i < s; i++ {
		off := ((bi*s+i)*n + bj*s) * 8
		buf, err := api.StateViewChunk(key, off, s*8)
		if err != nil {
			return nil, err
		}
		for j := 0; j < s; j++ {
			out[i*s+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[j*8:]))
		}
	}
	return out, nil
}

// Mult is the leaf multiplication guest.
func Mult(api hostapi.API) (int32, error) {
	in, err := decodeMult(api.Input())
	if err != nil {
		return 1, err
	}
	s := int(in.S)
	a, err := readBlock(api, KeyA, int(in.N), int(in.I), int(in.K), s)
	if err != nil {
		return 2, err
	}
	b, err := readBlock(api, KeyB, int(in.N), int(in.K), int(in.J), s)
	if err != nil {
		return 3, err
	}
	c := make([]float64, s*s)
	for i := 0; i < s; i++ {
		for k := 0; k < s; k++ {
			aik := a[i*s+k]
			for j := 0; j < s; j++ {
				c[i*s+j] += aik * b[k*s+j]
			}
		}
	}
	buf, err := api.StateView(tmpKey(in.Out), s*s*8)
	if err != nil {
		return 4, err
	}
	for i, v := range c {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	if err := api.StatePush(tmpKey(in.Out)); err != nil {
		return 5, err
	}
	return 0, nil
}

// Merge sums partial products into one C block and pushes it.
func Merge(api hostapi.API) (int32, error) {
	in, err := decodeMerge(api.Input())
	if err != nil {
		return 1, err
	}
	s := int(in.S)
	sum := make([]float64, s*s)
	for k := int32(0); k < in.Count; k++ {
		buf, err := api.StateViewChunk(tmpKey(in.Base+k), 0, s*s*8)
		if err != nil {
			return 2, err
		}
		for i := range sum {
			sum[i] += math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
	n := int(in.N)
	for i := 0; i < s; i++ {
		off := ((int(in.I)*s+i)*n + int(in.J)*s) * 8
		buf, err := api.StateViewChunk(KeyC, off, s*8)
		if err != nil {
			return 3, err
		}
		for j := 0; j < s; j++ {
			binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(sum[i*s+j]))
		}
		if err := api.StatePushChunk(KeyC, off, s*8); err != nil {
			return 4, err
		}
	}
	return 0, nil
}

// Main is the driver guest: it chains G³ leaf multiplications, awaits them,
// then chains one merge per C block (Fig 8's recursive chaining flattened
// to the same task graph).
func Main(api hostapi.API) (int32, error) {
	if len(api.Input()) != 8 {
		return 1, fmt.Errorf("dmatmul: bad main input")
	}
	n := int32(binary.LittleEndian.Uint32(api.Input()[0:]))
	depth := int32(binary.LittleEndian.Uint32(api.Input()[4:]))
	g := int32(1) << depth
	s := n / g
	if s*g != n {
		return 2, fmt.Errorf("dmatmul: N %d not divisible by grid %d", n, g)
	}
	var ids []uint64
	for i := int32(0); i < g; i++ {
		for j := int32(0); j < g; j++ {
			for k := int32(0); k < g; k++ {
				out := (i*g+j)*g + k
				id, err := api.Chain("mm-mult", encodeMult(multInput{
					N: n, S: s, I: i, J: j, K: k, Out: out,
				}))
				if err != nil {
					return 3, err
				}
				ids = append(ids, id)
			}
		}
	}
	for _, id := range ids {
		if ret, err := api.Await(id); err != nil || ret != 0 {
			return 4, fmt.Errorf("dmatmul: mult failed ret=%d err=%v", ret, err)
		}
	}
	var mids []uint64
	for i := int32(0); i < g; i++ {
		for j := int32(0); j < g; j++ {
			id, err := api.Chain("mm-merge", encodeMerge(mergeInput{
				N: n, S: s, I: i, J: j, Base: (i*g + j) * g, Count: g,
			}))
			if err != nil {
				return 5, err
			}
			mids = append(mids, id)
		}
	}
	for _, id := range mids {
		if ret, err := api.Await(id); err != nil || ret != 0 {
			return 6, fmt.Errorf("dmatmul: merge failed ret=%d err=%v", ret, err)
		}
	}
	return 0, nil
}

// MainInput packs the driver input.
func MainInput(p Params) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b[0:], uint32(p.N))
	binary.LittleEndian.PutUint32(b[4:], uint32(p.Depth))
	return b
}

// Register deploys the guests.
func Register(reg interface {
	Register(fn string, g hostapi.Guest) error
}) error {
	if err := reg.Register("mm-mult", Mult); err != nil {
		return err
	}
	if err := reg.Register("mm-merge", Merge); err != nil {
		return err
	}
	return reg.Register("mm-main", Main)
}

// Reference computes A×B directly for verification.
func Reference(p Params, a, b []byte) []float64 {
	n := p.N
	A := decodeMat(a, n)
	B := decodeMat(b, n)
	C := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := A[i*n+k]
			for j := 0; j < n; j++ {
				C[i*n+j] += aik * B[k*n+j]
			}
		}
	}
	return C
}

func decodeMat(b []byte, n int) []float64 {
	out := make([]float64, n*n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// DecodeResult converts the C blob to float64s.
func DecodeResult(b []byte, n int) []float64 { return decodeMat(b, n) }

// MaxAbsDiff compares two result matrices.
func MaxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}
