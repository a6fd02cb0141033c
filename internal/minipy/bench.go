package minipy

// This file defines the benchmark programs of the Fig 9b suite as minipy
// ASTs: the analogues of the Python Performance Benchmark programs the
// paper runs under CPython. Each returns a deterministic checksum so the
// harness can verify the faaslet-hosted and native runs compute identical
// results before comparing their times.
//
// pidigits note: the paper's pidigits stresses CPython's big integers; the
// repo's runtime has no arbitrary precision, so its "pidigits" computes the
// spigot algorithm over int64 limbs held in interpreter lists — preserving
// the shape (integer-division-heavy interpreter loops over heap objects)
// without bignum. The table3-python report notes the paper's bignum
// pidigits beside it.

// Program is one benchmark.
type Program struct {
	Name string
	// Build registers the program's functions; Run invokes its entry and
	// returns the checksum value.
	Build func(ip *Interp)
	Entry string
	Arg   int64
}

// AST helper constructors.
func ci(i int64) Node                    { return &Const{V: IntV(i)} }
func cf(f float64) Node                  { return &Const{V: FloatV(f)} }
func lv(slot int) Node                   { return &Local{Slot: slot} }
func setl(slot int, x Node) Node         { return &SetLocal{Slot: slot, X: x} }
func bin(op string, l, r Node) Node      { return &BinOp{Op: op, L: l, R: r} }
func blt(name string, args ...Node) Node { return &Builtin{Name: name, Args: args} }
func forr(slot int, from, to Node, body ...Node) Node {
	return &ForRange{Slot: slot, From: from, To: to, Body: body}
}
func ret(x Node) Node { return &Return{X: x} }

// Programs returns the benchmark suite.
func Programs() []Program {
	return []Program{
		nbodyProgram(), floatProgram(), fannkuchProgram(),
		pidigitsProgram(), jsonDumpsProgram(), pyaesProgram(),
	}
}

// ProgramByName finds a benchmark.
func ProgramByName(name string) (Program, bool) {
	for _, p := range Programs() {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}

// nbody: planar gravitational 3-body integration over lists of floats.
// slots: 0=n 1=px 2=py 3=vx 4=vy 5=i 6=j 7=k 8=dx 9=dy 10=d2 11=mag 12=e
func nbodyProgram() Program {
	build := func(ip *Interp) {
		body := []Node{
			// Positions and velocities: three bodies.
			setl(1, blt("list")), setl(2, blt("list")),
			setl(3, blt("list")), setl(4, blt("list")),
		}
		initXs := []float64{0, 3.0, -2.0}
		initYs := []float64{0, 1.5, 2.5}
		for b := 0; b < 3; b++ {
			body = append(body,
				setl(1, blt("append", lv(1), cf(initXs[b]))),
				setl(2, blt("append", lv(2), cf(initYs[b]))),
				setl(3, blt("append", lv(3), cf(0.01*float64(b)))),
				setl(4, blt("append", lv(4), cf(-0.005*float64(b)))),
			)
		}
		step := []Node{
			// Pairwise accelerations.
			forr(6, ci(0), ci(3),
				forr(7, ci(0), ci(3), &If{
					Cond: bin("!=", lv(6), lv(7)),
					Then: []Node{
						setl(8, bin("-", blt("getidx", lv(1), lv(7)), blt("getidx", lv(1), lv(6)))),
						setl(9, bin("-", blt("getidx", lv(2), lv(7)), blt("getidx", lv(2), lv(6)))),
						setl(10, bin("+", bin("*", lv(8), lv(8)), bin("+", bin("*", lv(9), lv(9)), cf(0.1)))),
						setl(11, bin("/", cf(0.001), bin("*", lv(10), blt("sqrt", lv(10))))),
						&ExprStmt{X: blt("setidx", lv(3), lv(6),
							bin("+", blt("getidx", lv(3), lv(6)), bin("*", lv(8), lv(11))))},
						&ExprStmt{X: blt("setidx", lv(4), lv(6),
							bin("+", blt("getidx", lv(4), lv(6)), bin("*", lv(9), lv(11))))},
					},
				}),
			),
			// Integrate positions.
			forr(6, ci(0), ci(3),
				&ExprStmt{X: blt("setidx", lv(1), lv(6),
					bin("+", blt("getidx", lv(1), lv(6)), blt("getidx", lv(3), lv(6))))},
				&ExprStmt{X: blt("setidx", lv(2), lv(6),
					bin("+", blt("getidx", lv(2), lv(6)), blt("getidx", lv(4), lv(6))))},
			),
		}
		body = append(body, forr(5, ci(0), lv(0), step...))
		// Checksum: sum of coordinates.
		body = append(body, setl(12, cf(0)),
			forr(6, ci(0), ci(3),
				setl(12, bin("+", lv(12), bin("+", blt("getidx", lv(1), lv(6)), blt("getidx", lv(2), lv(6))))),
			),
			ret(lv(12)))
		ip.Define(&FuncDef{Name: "nbody", Params: 1, Slots: 13, Body: body})
	}
	return Program{Name: "nbody", Build: build, Entry: "nbody", Arg: 300}
}

// float: scalar float arithmetic through interpreter dispatch.
// slots: 0=n 1=i 2=x 3=y 4=acc
func floatProgram() Program {
	build := func(ip *Interp) {
		ip.Define(&FuncDef{Name: "float", Params: 1, Slots: 5, Body: []Node{
			setl(4, cf(0)),
			forr(1, ci(0), lv(0),
				setl(2, bin("/", blt("float", lv(1)), cf(7.0))),
				setl(3, bin("+", bin("*", lv(2), lv(2)), blt("sqrt", bin("+", lv(2), cf(1.0))))),
				setl(4, bin("+", lv(4), bin("-", lv(3), blt("abs", bin("-", lv(2), cf(3.0)))))),
			),
			ret(lv(4)),
		}})
	}
	return Program{Name: "float", Build: build, Entry: "float", Arg: 20000}
}

// fannkuch: pancake-flipping over int lists (list churn + indexing).
// slots: 0=n 1=perm 2=i 3=j 4=k 5=tmp 6=flips 7=max 8=iter 9=first
func fannkuchProgram() Program {
	build := func(ip *Interp) {
		reverse := &FuncDef{Name: "revprefix", Params: 2, Slots: 6, Body: []Node{
			// revprefix(perm, k): reverse perm[0:k] in place.
			setl(2, ci(0)),
			setl(3, bin("-", lv(1), ci(1))),
			&While{Cond: bin("<", lv(2), lv(3)), Body: []Node{
				setl(4, blt("getidx", lv(0), lv(2))),
				&ExprStmt{X: blt("setidx", lv(0), lv(2), blt("getidx", lv(0), lv(3)))},
				&ExprStmt{X: blt("setidx", lv(0), lv(3), lv(4))},
				setl(2, bin("+", lv(2), ci(1))),
				setl(3, bin("-", lv(3), ci(1))),
			}},
			ret(lv(0)),
		}}
		ip.Define(reverse)
		main := &FuncDef{Name: "fannkuch", Params: 1, Slots: 10, Body: []Node{
			setl(7, ci(0)),
			// Iterate a fixed number of pseudo-permutations derived by
			// rotating, counting flips for each.
			setl(1, blt("list", lv(0))),
			forr(8, ci(0), bin("*", lv(0), ci(60)),
				// Refill perm as a rotation of 0..n-1 by iter.
				forr(2, ci(0), lv(0),
					&ExprStmt{X: blt("setidx", lv(1), lv(2),
						bin("%", bin("+", lv(2), lv(8)), lv(0)))},
				),
				setl(6, ci(0)),
				setl(9, blt("getidx", lv(1), ci(0))),
				&While{Cond: bin("!=", lv(9), ci(0)), Body: []Node{
					&ExprStmt{X: &CallN{Name: "revprefix", Args: []Node{lv(1), bin("+", lv(9), ci(1))}}},
					setl(6, bin("+", lv(6), ci(1))),
					setl(9, blt("getidx", lv(1), ci(0))),
				}},
				&If{Cond: bin(">", lv(6), lv(7)), Then: []Node{setl(7, lv(6))}},
			),
			ret(lv(7)),
		}}
		ip.Define(main)
	}
	return Program{Name: "fannkuch", Build: build, Entry: "fannkuch", Arg: 7}
}

// pidigits: spigot digits of π over int lists (division-heavy loops).
// slots: 0=ndigits 1=a 2=i 3=carry 4=x 5=digitsum 6=d 7=len
func pidigitsProgram() Program {
	build := func(ip *Interp) {
		ip.Define(&FuncDef{Name: "pidigits", Params: 1, Slots: 8, Body: []Node{
			// a = [2]*(10*n/3+1)
			setl(7, bin("+", bin("/", bin("*", lv(0), ci(10)), ci(3)), ci(1))),
			setl(1, blt("list", lv(7))),
			forr(2, ci(0), lv(7), &ExprStmt{X: blt("setidx", lv(1), lv(2), ci(2))}),
			setl(5, ci(0)),
			forr(6, ci(0), lv(0),
				setl(3, ci(0)),
				// for i in range(len-1, 0, -1): emulate descending with
				// index arithmetic.
				forr(2, ci(0), bin("-", lv(7), ci(1)),
					setl(4, bin("+", bin("*", blt("getidx", lv(1), bin("-", bin("-", lv(7), ci(1)), lv(2))), ci(10)), lv(3))),
					&ExprStmt{X: blt("setidx", lv(1), bin("-", bin("-", lv(7), ci(1)), lv(2)),
						bin("%", lv(4), bin("+", bin("*", bin("-", bin("-", lv(7), ci(1)), lv(2)), ci(2)), ci(1))))},
					setl(3, bin("*", bin("/", lv(4), bin("+", bin("*", bin("-", bin("-", lv(7), ci(1)), lv(2)), ci(2)), ci(1))), bin("-", bin("-", lv(7), ci(1)), lv(2)))),
				),
				setl(4, bin("+", bin("*", blt("getidx", lv(1), ci(0)), ci(10)), lv(3))),
				&ExprStmt{X: blt("setidx", lv(1), ci(0), bin("%", lv(4), ci(10)))},
				setl(5, bin("+", lv(5), bin("/", lv(4), ci(10)))),
			),
			ret(lv(5)),
		}})
	}
	return Program{Name: "pidigits", Build: build, Entry: "pidigits", Arg: 60}
}

// json-dumps: serialise a synthetic record list into a JSON-ish string.
// slots: 0=n 1=out 2=i 3=rec
func jsonDumpsProgram() Program {
	build := func(ip *Interp) {
		ip.Define(&FuncDef{Name: "jsondumps", Params: 1, Slots: 4, Body: []Node{
			setl(1, &StrLit{S: "["}),
			forr(2, ci(0), lv(0),
				setl(3, bin("+",
					bin("+", &StrLit{S: "{\"id\":"}, blt("str", lv(2))),
					bin("+",
						bin("+", &StrLit{S: ",\"v\":"}, blt("str", bin("*", lv(2), lv(2)))),
						&StrLit{S: "}"}))),
				setl(1, bin("+", lv(1), lv(3))),
				&If{Cond: bin("<", lv(2), bin("-", lv(0), ci(1))),
					Then: []Node{setl(1, bin("+", lv(1), &StrLit{S: ","}))}},
			),
			setl(1, bin("+", lv(1), &StrLit{S: "]"})),
			ret(blt("len", lv(1))),
		}})
	}
	return Program{Name: "json-dumps", Build: build, Entry: "jsondumps", Arg: 150}
}

// pyaes-lite: byte-level xor/rotate rounds over an int list (the index- and
// arithmetic-heavy inner loop shape of pyaes).
// slots: 0=rounds 1=stateL 2=r 3=i 4=v 5=prev 6=sum
func pyaesProgram() Program {
	build := func(ip *Interp) {
		ip.Define(&FuncDef{Name: "pyaes", Params: 1, Slots: 7, Body: []Node{
			setl(1, blt("list", ci(16))),
			forr(3, ci(0), ci(16), &ExprStmt{X: blt("setidx", lv(1), lv(3), bin("%", bin("*", lv(3), ci(37)), ci(251)))}),
			forr(2, ci(0), lv(0),
				setl(5, blt("getidx", lv(1), ci(15))),
				forr(3, ci(0), ci(16),
					setl(4, blt("getidx", lv(1), lv(3))),
					// v = ((v*5 + prev*3 + r) % 256)
					setl(4, bin("%", bin("+", bin("+", bin("*", lv(4), ci(5)), bin("*", lv(5), ci(3))), lv(2)), ci(256))),
					&ExprStmt{X: blt("setidx", lv(1), lv(3), lv(4))},
					setl(5, lv(4)),
				),
			),
			setl(6, ci(0)),
			forr(3, ci(0), ci(16), setl(6, bin("+", lv(6), blt("getidx", lv(1), lv(3))))),
			ret(lv(6)),
		}})
	}
	return Program{Name: "pyaes", Build: build, Entry: "pyaes", Arg: 600}
}
