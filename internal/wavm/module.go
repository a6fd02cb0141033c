package wavm

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Import declares a host function the module requires. All imports are
// functions: the Faaslet host interface is the only import surface (§3.2).
type Import struct {
	Module string
	Name   string
	Type   int // index into Module.Types
}

// ExportKind distinguishes exported entities.
type ExportKind byte

// Export kinds.
const (
	ExportFunc ExportKind = iota
	ExportMemory
)

// Export makes a function (or the memory) visible to the embedder.
type Export struct {
	Name  string
	Kind  ExportKind
	Index int
}

// Global is a module global variable with a constant initialiser.
type Global struct {
	Type    ValueType
	Mutable bool
	Init    int64 // raw bits for floats, sign-extended value for ints
}

// Data is an active data segment copied into linear memory at instantiation.
type Data struct {
	Offset uint32
	Bytes  []byte
}

// Function is one module-defined function body.
type Function struct {
	Type int // index into Module.Types
	// Locals are the declared locals (beyond parameters).
	Locals []ValueType
	Code   []Instr
	// BrTables holds br_table target lists, referenced by Instr.A.
	BrTables [][]BrTarget
	// Name is the optional debug name from the text format.
	Name string
}

// Module is a decoded, possibly-validated wavm module. After Validate
// succeeds, branch immediates hold absolute PCs and the module carries its
// executable form.
type Module struct {
	Types   []FuncType
	Imports []Import
	Funcs   []Function
	// Table is the function table for call_indirect; entries are absolute
	// function indices or -1 for undefined elements.
	Table   []int32
	MemMin  int // initial memory pages
	MemMax  int // memory page limit (0 = default)
	Globals []Global
	Data    []Data
	Exports []Export
	// Start is an optional function run at instantiation, -1 if none.
	Start int
	// Validated is set by Validate; Instantiate refuses unvalidated modules,
	// mirroring the paper's untrusted-compilation / trusted-codegen split.
	Validated bool

	// low is the register-form code instances execute, built by Validate and
	// DecodeObject — the two places a module becomes Validated — and shared
	// read-only by every instance. It is unexported so that it never reaches
	// an object file: lowered code has its branch targets and register
	// indices already resolved, and nothing crossing a storage boundary
	// should be executed on trust. Lowering is linear and cheap; a decoded
	// object lowers again.
	low *lowered
}

// FuncTypeAt returns the signature of function index i (imports first).
func (m *Module) FuncTypeAt(i int) (FuncType, error) {
	if i < 0 {
		return FuncType{}, fmt.Errorf("wavm: negative function index %d", i)
	}
	if i < len(m.Imports) {
		ti := m.Imports[i].Type
		if ti < 0 || ti >= len(m.Types) {
			return FuncType{}, fmt.Errorf("wavm: import %d has bad type index %d", i, ti)
		}
		return m.Types[ti], nil
	}
	fi := i - len(m.Imports)
	if fi >= len(m.Funcs) {
		return FuncType{}, fmt.Errorf("wavm: function index %d out of range", i)
	}
	ti := m.Funcs[fi].Type
	if ti < 0 || ti >= len(m.Types) {
		return FuncType{}, fmt.Errorf("wavm: function %d has bad type index %d", i, ti)
	}
	return m.Types[ti], nil
}

// ExportedFunc resolves an exported function name to its absolute index.
func (m *Module) ExportedFunc(name string) (int, bool) {
	for _, e := range m.Exports {
		if e.Kind == ExportFunc && e.Name == name {
			return e.Index, true
		}
	}
	return 0, false
}

// typeIndex interns a function type, returning its index.
func (m *Module) typeIndex(t FuncType) int {
	for i, existing := range m.Types {
		if existing.Equal(t) {
			return i
		}
	}
	m.Types = append(m.Types, t)
	return len(m.Types) - 1
}

// objectMagic distinguishes wavm object files produced by code generation.
const objectMagic = "WAVMOBJ1"

// EncodeObject serialises a validated module as an object file, the artefact
// the upload service stores after trusted code generation (§3.4).
func EncodeObject(m *Module) ([]byte, error) {
	if !m.Validated {
		return nil, fmt.Errorf("wavm: refusing to encode unvalidated module")
	}
	var buf bytes.Buffer
	buf.WriteString(objectMagic)
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("wavm: encode object: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeObject reverses EncodeObject. The returned module has already been
// validated (objects are produced only by the trusted codegen phase), but
// callers crossing a trust boundary should re-run Validate.
func DecodeObject(b []byte) (*Module, error) {
	if len(b) < len(objectMagic) || string(b[:len(objectMagic)]) != objectMagic {
		return nil, fmt.Errorf("wavm: not a wavm object file")
	}
	var m Module
	if err := gob.NewDecoder(bytes.NewReader(b[len(objectMagic):])).Decode(&m); err != nil {
		return nil, fmt.Errorf("wavm: decode object: %w", err)
	}
	if !m.Validated {
		return nil, fmt.Errorf("wavm: object file contains unvalidated module")
	}
	// The flag is only a claim: lowering re-derives what it relies on and
	// refuses code the validator would not have produced.
	if err := lowerInto(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
