package wavm_test

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"faasm.dev/faasm/internal/fcc"
	"faasm.dev/faasm/internal/kernels"
	"faasm.dev/faasm/internal/wavm"
)

// TestKernelsLoweredVsReference runs every Polybench kernel on both engines:
// same checksum, same memory image, and — since none of them traps — the
// same Steps to the instruction.
func TestKernelsLoweredVsReference(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			mod, err := kernels.CompileKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			p, err := wavm.NewPair(t, mod, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Call("main")
			if err != nil {
				t.Fatal(err)
			}
			if want := k.Native(k.N); math.Abs(wavm.DecodeF64(res[0])-want) > 1e-9*math.Max(math.Abs(want), 1) {
				t.Fatalf("checksum %v, native %v", wavm.DecodeF64(res[0]), want)
			}
		})
	}
}

// Test2mmStepsMatchLedger runs 2mm the way bench/'s compute_2mm guest wraps
// it — the kernel behind an i32 main that writes the checksum as the call
// output — and requires exactly the step count the benchmark ledger records
// as wavm.steps_per_call. Steps feeds cgroup accounting: lowering must not
// move it by one.
func Test2mmStepsMatchLedger(t *testing.T) {
	k, _ := kernels.ByName("2mm")
	src := "extern faasm write_call_output(i32, i32);\n" +
		strings.Replace(k.FC, "func main() f64", "func kernel() f64", 1) + `
func main() i32 {
	var out *f64 = alloc_f64(1);
	out[0] = kernel();
	write_call_output(i32(out), 8);
	return 0;
}`
	mod, err := fcc.CompileAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]wavm.HostModule{"faasm": {
		"write_call_output": func(*wavm.Instance, []uint64) ([]uint64, error) { return nil, nil },
	}}
	p, err := wavm.NewPair(t, mod, hosts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call("main"); err != nil {
		t.Fatal(err)
	}
	if p.Steps() != 8441847 {
		t.Fatalf("compute_2mm took %d steps, the ledger says 8441847", p.Steps())
	}
}

// TestKernelsUnderFuel stops each kernel at a spread of budgets: both
// engines must report exhaustion, within a block of each other.
func TestKernelsUnderFuel(t *testing.T) {
	for _, k := range kernels.All() {
		mod, err := kernels.CompileKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, fuel := range []int64{0, 1, 17, 400, 5003, 77777} {
			wavm.DriveModule(t, mod, fuel)
		}
	}
}

// The two FC programs of fcc's property tests, run here against the
// reference engine rather than a Go model.
const (
	fcExpression = `
	func f(a i32, b i32, c i32) i32 {
		var r i32 = (a + b) * 3 - c / 7;
		if (r < 0) { r = -r; }
		while (r > 1000000) { r = r / 2; }
		return r % 9973;
	}`
	fcArraySum = `
	#memory 16
	func f(n i32, seed i32) i64 {
		var a *i64 = alloc_i64(n);
		var x i32 = seed;
		for (var i i32 = 0; i < n; i = i + 1) {
			x = (x * 1103515245 + 12345) & 0x7fffffff;
			a[i] = i64(x);
		}
		var s i64 = 0;
		for (var i i32 = 0; i < n; i = i + 1) {
			s = s + a[i];
		}
		return s;
	}`
)

func TestFCProgramsLoweredVsReference(t *testing.T) {
	expr, err := fcc.CompileAndValidate(fcExpression)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wavm.NewPair(t, expr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// c == 0 traps with a division by zero on both engines.
	check := func(a, b, c int32) bool {
		p.Call("f", wavm.EncodeI32(a), wavm.EncodeI32(b), wavm.EncodeI32(c))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	check(1, 2, 0)

	sum, err := fcc.CompileAndValidate(fcArraySum)
	if err != nil {
		t.Fatal(err)
	}
	sums := func(n uint16, seed int32) bool {
		// The bump allocator is never reset: a fresh pair per call.
		p, err := wavm.NewPair(t, sum, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Call("f", wavm.EncodeI32(int32(n%2048)), wavm.EncodeI32(seed))
		return true
	}
	if err := quick.Check(sums, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLowered2mmShape pins what the lowering pass makes of the 2mm kernel:
// the inner loop's 36 source instructions become nine, of which the fused
// forms are the ones the Execution tier section of docs/ARCHITECTURE.md
// counts.
func TestLowered2mmShape(t *testing.T) {
	k, _ := kernels.ByName("2mm")
	mod, err := kernels.CompileKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	low, err := wavm.Lower(mod)
	if err != nil {
		t.Fatal(err)
	}
	st := low.Stats(mod)
	names := make([]string, 0, len(st.Ops))
	for name := range st.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%4d %s", st.Ops[name], name)
	}
	t.Logf("%d source instructions -> %d lowered (%d bytes)", st.Source, st.Lowered, st.Bytes)
	for name, want := range map[string]int{
		"i64.load[idx]":  5, // four in the two inner loops, one in the checksum loop
		"i32.mul+add":    6, // i*n+k, k*n+j twice over, i*n+j for each store
		"f64.add+mul":    2, // acc = acc + a*b
		"br_if i32.ge_s": 8, // every `i < n` loop test, negated
		"local.get":      0,
		"block":          0,
	} {
		if st.Ops[name] != want {
			t.Errorf("%s: %d lowered instructions, want %d", name, st.Ops[name], want)
		}
	}
	if st.Lowered*2 > st.Source {
		t.Errorf("%d source instructions lowered to %d: expected fewer than half", st.Source, st.Lowered)
	}
}

// TestFusedFormsHaveSites is the admission rule for fused forms: each one
// the executor carries must be emitted somewhere in the kernels suite, the
// compute workloads the repo serves. The per-family counts it logs are the
// census in the Execution tier section of docs/ARCHITECTURE.md.
func TestFusedFormsHaveSites(t *testing.T) {
	sites := map[string]int{}
	for _, k := range kernels.All() {
		mod, err := kernels.CompileKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		low, err := wavm.Lower(mod)
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range low.Stats(mod).Ops {
			sites[name] += n
		}
	}
	brReg, brImm := 0, 0
	for name, n := range sites {
		if strings.HasPrefix(name, "br_if i32.") {
			if strings.HasSuffix(name, " imm") {
				brImm += n
			} else {
				brReg += n
			}
			t.Logf("%4d %s", n, name)
		}
	}
	if brReg == 0 || brImm == 0 {
		t.Errorf("i32 compare-and-branch: %d register sites, %d immediate sites", brReg, brImm)
	}
	for _, name := range []string{
		"i64.load[idx]", "i32.mul+add", "f64.add+mul",
		"i32.add imm", "i32.mul imm", "i32.and imm", "f64.add imm", "f64.mul imm", "f64.div imm",
	} {
		t.Logf("%4d %s", sites[name], name)
		if sites[name] == 0 {
			t.Errorf("%s: no kernel emits it", name)
		}
	}
}

// BenchmarkLower2mm measures the work Validate and DecodeObject took on:
// lowering time per module, and lowered bytes per source instruction.
func BenchmarkLower2mm(b *testing.B) {
	k, _ := kernels.ByName("2mm")
	mod, err := kernels.CompileKernel(k)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var low *wavm.Lowered
	for i := 0; i < b.N; i++ {
		if low, err = wavm.Lower(mod); err != nil {
			b.Fatal(err)
		}
	}
	st := low.Stats(mod)
	b.ReportMetric(float64(st.Bytes)/float64(st.Source), "loweredB/srcinstr")
	b.ReportMetric(float64(st.Lowered)/float64(st.Source), "lowered/srcinstr")
}
