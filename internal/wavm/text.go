package wavm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Assemble compiles the wat-like text format into an unvalidated Module.
// This is the untrusted "compilation" phase of the paper's Fig 3 pipeline:
// the output must pass Validate (trusted code generation) before it can be
// linked and executed.
//
// The format is a subset of the WebAssembly text format with flat (unfolded)
// instruction sequences:
//
//	(module
//	  (import "faasm" "read_call_input" (func $read (param i32 i32) (result i32)))
//	  (memory 2 16)
//	  (data (i32.const 1024) "hello\00")
//	  (global $counter (mut i32) (i32.const 0))
//	  (table (elem $f $g))
//	  (func $main (export "main") (param $n i32) (result i32) (local $i i32)
//	    block $exit
//	      local.get $n
//	      i32.eqz
//	      br_if $exit
//	    end
//	    local.get $n
//	  )
//	)
func Assemble(src string) (*Module, error) {
	root, err := parseSexpr(src)
	if err != nil {
		return nil, err
	}
	if len(root) == 1 && root[0].isList() && len(root[0].list) > 0 && root[0].list[0].atom == "module" {
		root = root[0].list[1:]
	}
	a := &assembler{
		mod:     &Module{Start: -1},
		funcIdx: map[string]int{},
		globIdx: map[string]int{},
	}
	return a.assemble(root)
}

// AssembleAndValidate runs both pipeline phases.
func AssembleAndValidate(src string) (*Module, error) {
	m, err := Assemble(src)
	if err != nil {
		return nil, err
	}
	if err := Validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

// sexpr is one node of the parsed text: either an atom or a list.
type sexpr struct {
	atom string
	list []sexpr
	// str marks atoms that were written as string literals.
	str bool
	// line is the 1-based source line, for error messages.
	line int
}

func (s sexpr) isList() bool { return s.atom == "" && !s.str }

func (s sexpr) head() string {
	if s.isList() && len(s.list) > 0 {
		return s.list[0].atom
	}
	return ""
}

// parseSexpr tokenises and parses the top-level sequence of s-expressions.
func parseSexpr(src string) ([]sexpr, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	var pos int
	var parse func() (sexpr, error)
	parse = func() (sexpr, error) {
		t := toks[pos]
		pos++
		if t.text == "(" {
			node := sexpr{line: t.line}
			for {
				if pos >= len(toks) {
					return sexpr{}, fmt.Errorf("wavm: line %d: unclosed paren", t.line)
				}
				if toks[pos].text == ")" {
					pos++
					return node, nil
				}
				child, err := parse()
				if err != nil {
					return sexpr{}, err
				}
				node.list = append(node.list, child)
			}
		}
		if t.text == ")" {
			return sexpr{}, fmt.Errorf("wavm: line %d: unexpected )", t.line)
		}
		return sexpr{atom: t.text, str: t.str, line: t.line}, nil
	}
	var out []sexpr
	for pos < len(toks) {
		node, err := parse()
		if err != nil {
			return nil, err
		}
		out = append(out, node)
	}
	return out, nil
}

type token struct {
	text string
	str  bool
	line int
}

func tokenize(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == ';' && i+1 < len(src) && src[i+1] == ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' && i+1 < len(src) && src[i+1] == ';':
			depth := 1
			i += 2
			for i < len(src) && depth > 0 {
				if src[i] == '\n' {
					line++
				}
				if src[i] == '(' && i+1 < len(src) && src[i+1] == ';' {
					depth++
					i++
				} else if src[i] == ';' && i+1 < len(src) && src[i+1] == ')' {
					depth--
					i++
				}
				i++
			}
		case c == '(' || c == ')':
			toks = append(toks, token{text: string(c), line: line})
			i++
		case c == '"':
			s, n, err := parseString(src[i:], line)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{text: s, str: true, line: line})
			i += n
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\r\n();\"", rune(src[j])) {
				j++
			}
			if j == i {
				// A ';' that opens no comment: it is a delimiter, so the scan
				// above consumed nothing and would never advance.
				return nil, fmt.Errorf("wavm: line %d: stray ';'", line)
			}
			toks = append(toks, token{text: src[i:j], line: line})
			i = j
		}
	}
	return toks, nil
}

// parseString decodes a double-quoted literal with wat escapes (\n \t \\ \"
// and two-digit hex \XX), returning the value and bytes consumed.
func parseString(src string, line int) (string, int, error) {
	var b strings.Builder
	i := 1
	for i < len(src) {
		c := src[i]
		switch {
		case c == '"':
			return b.String(), i + 1, nil
		case c == '\\':
			if i+1 >= len(src) {
				return "", 0, fmt.Errorf("wavm: line %d: bad escape", line)
			}
			n := src[i+1]
			switch n {
			case 'n':
				b.WriteByte('\n')
				i += 2
			case 't':
				b.WriteByte('\t')
				i += 2
			case 'r':
				b.WriteByte('\r')
				i += 2
			case '\\':
				b.WriteByte('\\')
				i += 2
			case '"':
				b.WriteByte('"')
				i += 2
			default:
				if i+2 >= len(src) {
					return "", 0, fmt.Errorf("wavm: line %d: bad hex escape", line)
				}
				v, err := strconv.ParseUint(src[i+1:i+3], 16, 8)
				if err != nil {
					return "", 0, fmt.Errorf("wavm: line %d: bad hex escape %q", line, src[i+1:i+3])
				}
				b.WriteByte(byte(v))
				i += 3
			}
		case c == '\n':
			return "", 0, fmt.Errorf("wavm: line %d: newline in string", line)
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", 0, fmt.Errorf("wavm: line %d: unterminated string", line)
}

// assembler builds a Module from parsed forms.
type assembler struct {
	mod      *Module
	funcIdx  map[string]int // $name → absolute function index
	globIdx  map[string]int
	funcDefs []sexpr // (func ...) forms awaiting body assembly
}

func (a *assembler) assemble(forms []sexpr) (*Module, error) {
	// Pass 1: establish index spaces (imports first, then funcs), globals,
	// memory, table shape.
	var tableForm *sexpr
	for i := range forms {
		f := forms[i]
		switch f.head() {
		case "import":
			if err := a.addImport(f); err != nil {
				return nil, err
			}
		case "func":
			idx := len(a.mod.Imports) + len(a.funcDefs)
			if name := optName(f.list[1:]); name != "" {
				if _, dup := a.funcIdx[name]; dup {
					return nil, fmt.Errorf("wavm: line %d: duplicate function %s", f.line, name)
				}
				a.funcIdx[name] = idx
			}
			a.funcDefs = append(a.funcDefs, f)
		case "memory":
			if err := a.addMemory(f); err != nil {
				return nil, err
			}
		case "global":
			if err := a.addGlobal(f); err != nil {
				return nil, err
			}
		case "table":
			tf := f
			tableForm = &tf
		case "data", "start", "export":
			// handled in pass 2
		default:
			return nil, fmt.Errorf("wavm: line %d: unknown module field %q", f.line, f.head())
		}
	}
	// Imports must precede defined functions in the index space; we enforced
	// that by construction, but the source may interleave them, which is fine.

	// Pass 2: bodies and remaining fields.
	for _, f := range a.funcDefs {
		if err := a.addFunc(f); err != nil {
			return nil, err
		}
	}
	if tableForm != nil {
		if err := a.addTable(*tableForm); err != nil {
			return nil, err
		}
	}
	for _, f := range forms {
		switch f.head() {
		case "data":
			if err := a.addData(f); err != nil {
				return nil, err
			}
		case "start":
			if len(f.list) != 2 {
				return nil, fmt.Errorf("wavm: line %d: start wants one function", f.line)
			}
			idx, err := a.resolveFunc(f.list[1])
			if err != nil {
				return nil, err
			}
			a.mod.Start = idx
		case "export":
			if err := a.addExport(f); err != nil {
				return nil, err
			}
		}
	}
	if a.mod.MemMin == 0 && len(a.mod.Data) > 0 {
		return nil, fmt.Errorf("wavm: data segments without memory")
	}
	return a.mod, nil
}

func optName(items []sexpr) string {
	if len(items) > 0 && !items[0].isList() && strings.HasPrefix(items[0].atom, "$") {
		return items[0].atom
	}
	return ""
}

func (a *assembler) addImport(f sexpr) error {
	// (import "mod" "name" (func $n (param ...) (result ...)))
	if len(f.list) != 4 || !f.list[1].str || !f.list[2].str || f.list[3].head() != "func" {
		return fmt.Errorf("wavm: line %d: malformed import", f.line)
	}
	fn := f.list[3]
	rest := fn.list[1:]
	idx := len(a.mod.Imports)
	if name := optName(rest); name != "" {
		if _, dup := a.funcIdx[name]; dup {
			return fmt.Errorf("wavm: line %d: duplicate function %s", f.line, name)
		}
		a.funcIdx[name] = idx
		rest = rest[1:]
	}
	ft, _, err := parseSignature(rest)
	if err != nil {
		return fmt.Errorf("wavm: line %d: %v", f.line, err)
	}
	if len(a.mod.Funcs) > 0 || len(a.funcDefs) > 0 {
		return fmt.Errorf("wavm: line %d: imports must precede function definitions", f.line)
	}
	a.mod.Imports = append(a.mod.Imports, Import{
		Module: f.list[1].atom,
		Name:   f.list[2].atom,
		Type:   a.mod.typeIndex(ft),
	})
	return nil
}

// parseSignature consumes leading (param ...) and (result ...) clauses,
// returning the type, the parameter names (empty string when unnamed), and
// an error. Remaining clauses are not consumed.
func parseSignature(items []sexpr) (FuncType, []string, error) {
	var ft FuncType
	var names []string
	for _, it := range items {
		switch it.head() {
		case "param":
			args := it.list[1:]
			if len(args) >= 2 && !args[0].isList() && strings.HasPrefix(args[0].atom, "$") {
				vt, err := valueType(args[1].atom)
				if err != nil {
					return ft, nil, err
				}
				ft.Params = append(ft.Params, vt)
				names = append(names, args[0].atom)
				continue
			}
			for _, p := range args {
				vt, err := valueType(p.atom)
				if err != nil {
					return ft, nil, err
				}
				ft.Params = append(ft.Params, vt)
				names = append(names, "")
			}
		case "result":
			for _, r := range it.list[1:] {
				vt, err := valueType(r.atom)
				if err != nil {
					return ft, nil, err
				}
				ft.Results = append(ft.Results, vt)
			}
		default:
			return ft, names, nil
		}
	}
	return ft, names, nil
}

func valueType(s string) (ValueType, error) {
	switch s {
	case "i32":
		return I32, nil
	case "i64":
		return I64, nil
	case "f32":
		return F32, nil
	case "f64":
		return F64, nil
	}
	return 0, fmt.Errorf("unknown value type %q", s)
}

func (a *assembler) addMemory(f sexpr) error {
	// (memory min [max])
	if a.mod.MemMin != 0 {
		return fmt.Errorf("wavm: line %d: duplicate memory", f.line)
	}
	if len(f.list) < 2 || len(f.list) > 3 {
		return fmt.Errorf("wavm: line %d: memory wants (memory min [max])", f.line)
	}
	min, err := strconv.Atoi(f.list[1].atom)
	if err != nil || min < 1 {
		return fmt.Errorf("wavm: line %d: bad memory min %q", f.line, f.list[1].atom)
	}
	a.mod.MemMin = min
	if len(f.list) == 3 {
		max, err := strconv.Atoi(f.list[2].atom)
		if err != nil || max < min {
			return fmt.Errorf("wavm: line %d: bad memory max %q", f.line, f.list[2].atom)
		}
		a.mod.MemMax = max
	}
	return nil
}

func (a *assembler) addGlobal(f sexpr) error {
	// (global $name (mut i32) (i32.const 0)) or (global $name f64 (f64.const 1))
	items := f.list[1:]
	name := optName(items)
	if name != "" {
		items = items[1:]
	}
	if len(items) != 2 {
		return fmt.Errorf("wavm: line %d: malformed global", f.line)
	}
	var g Global
	typeSpec := items[0]
	if typeSpec.head() == "mut" {
		if len(typeSpec.list) != 2 {
			return fmt.Errorf("wavm: line %d: malformed (mut T)", f.line)
		}
		vt, err := valueType(typeSpec.list[1].atom)
		if err != nil {
			return fmt.Errorf("wavm: line %d: %v", f.line, err)
		}
		g.Type = vt
		g.Mutable = true
	} else {
		vt, err := valueType(typeSpec.atom)
		if err != nil {
			return fmt.Errorf("wavm: line %d: %v", f.line, err)
		}
		g.Type = vt
	}
	initForm := items[1]
	if !initForm.isList() || len(initForm.list) != 2 {
		return fmt.Errorf("wavm: line %d: malformed global initialiser", f.line)
	}
	bits, vt, err := constPayload(initForm.list[0].atom, initForm.list[1].atom)
	if err != nil {
		return fmt.Errorf("wavm: line %d: %v", f.line, err)
	}
	if vt != g.Type {
		return fmt.Errorf("wavm: line %d: global initialiser type %s != %s", f.line, vt, g.Type)
	}
	g.Init = bits
	if name != "" {
		if _, dup := a.globIdx[name]; dup {
			return fmt.Errorf("wavm: line %d: duplicate global %s", f.line, name)
		}
		a.globIdx[name] = len(a.mod.Globals)
	}
	a.mod.Globals = append(a.mod.Globals, g)
	return nil
}

// constPayload parses "<t>.const <literal>" into raw payload bits and type.
func constPayload(op, lit string) (int64, ValueType, error) {
	switch op {
	case "i32.const":
		v, err := parseIntLiteral(lit, 32)
		if err != nil {
			return 0, 0, err
		}
		return int64(int32(v)), I32, nil
	case "i64.const":
		v, err := parseIntLiteral(lit, 64)
		if err != nil {
			return 0, 0, err
		}
		return v, I64, nil
	case "f32.const":
		f, err := strconv.ParseFloat(lit, 32)
		if err != nil {
			return 0, 0, fmt.Errorf("bad f32 literal %q", lit)
		}
		return int64(math.Float32bits(float32(f))), F32, nil
	case "f64.const":
		f, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad f64 literal %q", lit)
		}
		return int64(math.Float64bits(f)), F64, nil
	}
	return 0, 0, fmt.Errorf("expected const instruction, got %q", op)
}

// parseIntLiteral accepts decimal and 0x hex, signed or unsigned, within the
// given bit width.
func parseIntLiteral(s string, bits int) (int64, error) {
	if v, err := strconv.ParseInt(s, 0, bits); err == nil {
		return v, nil
	}
	if u, err := strconv.ParseUint(s, 0, bits); err == nil {
		return int64(u), nil // wraps into the signed range
	}
	return 0, fmt.Errorf("bad integer literal %q", s)
}

func (a *assembler) addTable(f sexpr) error {
	// (table (elem $f $g ...)) — single active element segment at offset 0.
	for _, item := range f.list[1:] {
		if item.head() != "elem" {
			continue
		}
		for _, e := range item.list[1:] {
			idx, err := a.resolveFunc(e)
			if err != nil {
				return err
			}
			a.mod.Table = append(a.mod.Table, int32(idx))
		}
	}
	return nil
}

func (a *assembler) addData(f sexpr) error {
	// (data (i32.const off) "bytes" ...)
	items := f.list[1:]
	if len(items) < 2 || items[0].head() != "i32.const" || len(items[0].list) != 2 {
		return fmt.Errorf("wavm: line %d: data wants (data (i32.const off) \"...\")", f.line)
	}
	off, err := parseIntLiteral(items[0].list[1].atom, 32)
	if err != nil {
		return fmt.Errorf("wavm: line %d: %v", f.line, err)
	}
	var b []byte
	for _, s := range items[1:] {
		if !s.str {
			return fmt.Errorf("wavm: line %d: data payload must be strings", f.line)
		}
		b = append(b, s.atom...)
	}
	a.mod.Data = append(a.mod.Data, Data{Offset: uint32(off), Bytes: b})
	return nil
}

func (a *assembler) addExport(f sexpr) error {
	// (export "name" (func $f))
	if len(f.list) != 3 || !f.list[1].str {
		return fmt.Errorf("wavm: line %d: malformed export", f.line)
	}
	target := f.list[2]
	switch target.head() {
	case "func":
		idx, err := a.resolveFunc(target.list[1])
		if err != nil {
			return err
		}
		a.mod.Exports = append(a.mod.Exports, Export{Name: f.list[1].atom, Kind: ExportFunc, Index: idx})
	case "memory":
		a.mod.Exports = append(a.mod.Exports, Export{Name: f.list[1].atom, Kind: ExportMemory})
	default:
		return fmt.Errorf("wavm: line %d: can only export func or memory", f.line)
	}
	return nil
}

func (a *assembler) resolveFunc(s sexpr) (int, error) {
	if strings.HasPrefix(s.atom, "$") {
		idx, ok := a.funcIdx[s.atom]
		if !ok {
			return 0, fmt.Errorf("wavm: line %d: unknown function %s", s.line, s.atom)
		}
		return idx, nil
	}
	idx, err := strconv.Atoi(s.atom)
	if err != nil {
		return 0, fmt.Errorf("wavm: line %d: bad function reference %q", s.line, s.atom)
	}
	return idx, nil
}

func (a *assembler) addFunc(f sexpr) error {
	items := f.list[1:]
	name := optName(items)
	if name != "" {
		items = items[1:]
	}
	// Inline exports.
	var exports []string
	for len(items) > 0 && items[0].head() == "export" {
		if len(items[0].list) != 2 || !items[0].list[1].str {
			return fmt.Errorf("wavm: line %d: malformed inline export", f.line)
		}
		exports = append(exports, items[0].list[1].atom)
		items = items[1:]
	}
	ft, paramNames, err := parseSignature(items)
	if err != nil {
		return fmt.Errorf("wavm: line %d: %v", f.line, err)
	}
	// Skip consumed signature clauses.
	for len(items) > 0 && (items[0].head() == "param" || items[0].head() == "result") {
		items = items[1:]
	}
	fn := Function{Type: a.mod.typeIndex(ft), Name: name}
	localNames := map[string]int{}
	for i, n := range paramNames {
		if n != "" {
			localNames[n] = i
		}
	}
	for len(items) > 0 && items[0].head() == "local" {
		args := items[0].list[1:]
		if len(args) >= 2 && strings.HasPrefix(args[0].atom, "$") {
			vt, err := valueType(args[1].atom)
			if err != nil {
				return fmt.Errorf("wavm: line %d: %v", f.line, err)
			}
			localNames[args[0].atom] = len(ft.Params) + len(fn.Locals)
			fn.Locals = append(fn.Locals, vt)
		} else {
			for _, l := range args {
				vt, err := valueType(l.atom)
				if err != nil {
					return fmt.Errorf("wavm: line %d: %v", f.line, err)
				}
				fn.Locals = append(fn.Locals, vt)
			}
		}
		items = items[1:]
	}
	body := &bodyAssembler{
		asm:        a,
		fn:         &fn,
		localNames: localNames,
	}
	if err := body.assemble(items); err != nil {
		return err
	}
	idx := len(a.mod.Imports) + len(a.mod.Funcs)
	a.mod.Funcs = append(a.mod.Funcs, fn)
	for _, e := range exports {
		a.mod.Exports = append(a.mod.Exports, Export{Name: e, Kind: ExportFunc, Index: idx})
	}
	return nil
}

// bodyAssembler turns a flat token sequence into instructions. Branch
// immediates are label depths at this stage; the validator resolves them to
// absolute PCs.
type bodyAssembler struct {
	asm        *assembler
	fn         *Function
	localNames map[string]int
	labels     []string // innermost last
}

func (b *bodyAssembler) assemble(items []sexpr) error {
	i := 0
	next := func() (sexpr, bool) {
		if i < len(items) {
			s := items[i]
			i++
			return s, true
		}
		return sexpr{}, false
	}
	peek := func() (sexpr, bool) {
		if i < len(items) {
			return items[i], true
		}
		return sexpr{}, false
	}
	emit := func(in Instr) { b.fn.Code = append(b.fn.Code, in) }

	for {
		it, ok := next()
		if !ok {
			break
		}
		if it.isList() {
			return fmt.Errorf("wavm: line %d: folded expressions not supported; use flat instructions", it.line)
		}
		opName := it.atom
		switch opName {
		case "block", "loop", "if":
			label := ""
			if p, ok := peek(); ok && strings.HasPrefix(p.atom, "$") && !p.isList() {
				label = p.atom
				i++
			}
			// Optional (result T) clause; block types are re-derived by the
			// validator, we record arity in B.
			arity := int32(0)
			var resultType ValueType
			if p, ok := peek(); ok && p.head() == "result" {
				if len(p.list) != 2 {
					return fmt.Errorf("wavm: line %d: block result wants one type", p.line)
				}
				vt, err := valueType(p.list[1].atom)
				if err != nil {
					return fmt.Errorf("wavm: line %d: %v", p.line, err)
				}
				resultType = vt
				arity = 1
				i++
			}
			var op Op
			switch opName {
			case "block":
				op = OpBlock
			case "loop":
				op = OpLoop
			case "if":
				op = OpIf
			}
			b.labels = append(b.labels, label)
			emit(Instr{Op: op, B: arity, C: int64(resultType)})
		case "else":
			emit(Instr{Op: OpElse})
		case "end":
			if len(b.labels) == 0 {
				return fmt.Errorf("wavm: line %d: end without block", it.line)
			}
			b.labels = b.labels[:len(b.labels)-1]
			emit(Instr{Op: OpEnd})
		case "br", "br_if":
			t, ok := next()
			if !ok {
				return fmt.Errorf("wavm: line %d: %s wants a label", it.line, opName)
			}
			depth, err := b.labelDepth(t)
			if err != nil {
				return err
			}
			op := OpBr
			if opName == "br_if" {
				op = OpBrIf
			}
			emit(Instr{Op: op, A: depth})
		case "br_table":
			var depths []int32
			for {
				p, ok := peek()
				if !ok || p.isList() || !(strings.HasPrefix(p.atom, "$") || isUint(p.atom)) {
					break
				}
				i++
				d, err := b.labelDepth(p)
				if err != nil {
					return err
				}
				depths = append(depths, d)
			}
			if len(depths) < 1 {
				return fmt.Errorf("wavm: line %d: br_table wants at least a default label", it.line)
			}
			targets := make([]BrTarget, len(depths))
			for j, d := range depths {
				targets[j] = BrTarget{PC: d} // depth for now; validator resolves
			}
			b.fn.BrTables = append(b.fn.BrTables, targets)
			emit(Instr{Op: OpBrTable, A: int32(len(b.fn.BrTables) - 1)})
		case "call":
			t, ok := next()
			if !ok {
				return fmt.Errorf("wavm: line %d: call wants a function", it.line)
			}
			idx, err := b.asm.resolveFunc(t)
			if err != nil {
				return err
			}
			emit(Instr{Op: OpCall, A: int32(idx)})
		case "call_indirect":
			// call_indirect (param ...) (result ...)
			var sigItems []sexpr
			for {
				p, ok := peek()
				if !ok || !(p.head() == "param" || p.head() == "result") {
					break
				}
				sigItems = append(sigItems, p)
				i++
			}
			ft, _, err := parseSignature(sigItems)
			if err != nil {
				return fmt.Errorf("wavm: line %d: %v", it.line, err)
			}
			emit(Instr{Op: OpCallIndirect, A: int32(b.asm.mod.typeIndex(ft))})
		case "local.get", "local.set", "local.tee":
			t, ok := next()
			if !ok {
				return fmt.Errorf("wavm: line %d: %s wants a local", it.line, opName)
			}
			idx, err := b.localIndex(t)
			if err != nil {
				return err
			}
			emit(Instr{Op: opByName[opName], A: idx})
		case "global.get", "global.set":
			t, ok := next()
			if !ok {
				return fmt.Errorf("wavm: line %d: %s wants a global", it.line, opName)
			}
			idx, err := b.globalIndex(t)
			if err != nil {
				return err
			}
			emit(Instr{Op: opByName[opName], A: idx})
		case "i32.const", "i64.const", "f32.const", "f64.const":
			t, ok := next()
			if !ok {
				return fmt.Errorf("wavm: line %d: %s wants a literal", it.line, opName)
			}
			bits, _, err := constPayload(opName, t.atom)
			if err != nil {
				return fmt.Errorf("wavm: line %d: %v", it.line, err)
			}
			emit(Instr{Op: opByName[opName], C: bits})
		default:
			op, ok := opByName[opName]
			if !ok {
				return fmt.Errorf("wavm: line %d: unknown instruction %q", it.line, opName)
			}
			in := Instr{Op: op}
			if isMemoryAccess(op) {
				// Optional offset=N align=N immediates.
				for {
					p, ok := peek()
					if !ok || p.isList() {
						break
					}
					if strings.HasPrefix(p.atom, "offset=") {
						v, err := parseIntLiteral(p.atom[len("offset="):], 32)
						if err != nil {
							return fmt.Errorf("wavm: line %d: %v", p.line, err)
						}
						in.A = int32(v)
						i++
					} else if strings.HasPrefix(p.atom, "align=") {
						i++ // alignment hints are ignored
					} else {
						break
					}
				}
			}
			emit(in)
		}
	}
	if len(b.labels) != 0 {
		return fmt.Errorf("wavm: unbalanced blocks in function %s", b.fn.Name)
	}
	return nil
}

func isUint(s string) bool {
	_, err := strconv.ParseUint(s, 10, 31)
	return err == nil
}

func isMemoryAccess(op Op) bool {
	return op >= OpI32Load && op <= OpI64Store32
}

func (b *bodyAssembler) labelDepth(s sexpr) (int32, error) {
	if strings.HasPrefix(s.atom, "$") {
		for d := 0; d < len(b.labels); d++ {
			if b.labels[len(b.labels)-1-d] == s.atom {
				return int32(d), nil
			}
		}
		return 0, fmt.Errorf("wavm: line %d: unknown label %s", s.line, s.atom)
	}
	v, err := strconv.ParseUint(s.atom, 10, 31)
	if err != nil {
		return 0, fmt.Errorf("wavm: line %d: bad label %q", s.line, s.atom)
	}
	return int32(v), nil
}

func (b *bodyAssembler) localIndex(s sexpr) (int32, error) {
	if strings.HasPrefix(s.atom, "$") {
		idx, ok := b.localNames[s.atom]
		if !ok {
			return 0, fmt.Errorf("wavm: line %d: unknown local %s", s.line, s.atom)
		}
		return int32(idx), nil
	}
	v, err := strconv.ParseUint(s.atom, 10, 31)
	if err != nil {
		return 0, fmt.Errorf("wavm: line %d: bad local index %q", s.line, s.atom)
	}
	return int32(v), nil
}

func (b *bodyAssembler) globalIndex(s sexpr) (int32, error) {
	if strings.HasPrefix(s.atom, "$") {
		idx, ok := b.asm.globIdx[s.atom]
		if !ok {
			return 0, fmt.Errorf("wavm: line %d: unknown global %s", s.line, s.atom)
		}
		return int32(idx), nil
	}
	v, err := strconv.ParseUint(s.atom, 10, 31)
	if err != nil {
		return 0, fmt.Errorf("wavm: line %d: bad global index %q", s.line, s.atom)
	}
	return int32(v), nil
}
