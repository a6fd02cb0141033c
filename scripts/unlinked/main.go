// Command unlinked is the linked-code census: it lists every non-test
// function of this module that no binary links, with its line count, and
// checks that list against an allow file in which every entry carries a
// reason. scripts/unlinked.sh builds the binaries without inlining, dumps
// their symbols with `go tool nm` and runs it:
//
//	go run ./scripts/unlinked -allow scripts/unlinked.allow \
//		faasm.dev/faasm/cmd/faasmd=faasmd.nm ...
//
// Each argument names the main package a symbol table was built from, so
// its `main.` symbols resolve to that package. The census fails on an
// unlinked function the allow file does not name, on an entry that is
// linked again or no longer exists, and on an entry whose reason is not
// one of these, or does not hold:
//
//	test seam <TestName>     the named test refers to it, directly or
//	                         through a test kit it calls (a type-checked
//	                         reference, so another type's namesake does
//	                         not count)
//	interface <Iface.Method> a binary converts the receiver to Iface, and
//	                         the method is an empty marker or another
//	                         implementation of it is linked (so binaries
//	                         call it through the interface)
//	Table 2 <call>           a host call of core's host interface table
//	public API               a function of the root package
//	item <N>                 a deletion the ROADMAP has scheduled
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testKits are packages of test code that tests import: the census reads
// them as test code, never as functions to link.
var testKits = map[string]bool{"internal/kvs/kvstest": true}

// self is this command's directory, which the census skips.
const self = "scripts/unlinked"

// items are the ROADMAP items that schedule the fate of unlinked code, each
// with the name prefix it covers.
var items = map[string]string{
	"2(b)": "internal/cgroup.",               // CPU fair share, or delete cgroup
	"4(a)": "internal/frt.(*Instance).Drain", // drain on SIGTERM
}

var reason = regexp.MustCompile(`^(test seam (Test|Benchmark|Fuzz)\w+|interface \w+\.\w+|Table 2 \w+|public API|item \d+\([a-z]\))$`)

type fn struct {
	name   string   // display name: module-relative package, receiver, name
	key    string   // types.Func full name: pkg.F, (pkg.T).M or (*pkg.T).M
	syms   []string // linker symbols any one of which links it
	recv   string   // full receiver type name, "" for a function
	mname  string   // method or function name
	marker bool     // a method with no parameters, results or statements
	lines  int
}

type census struct {
	linked    map[string]bool               // normalised linker symbols
	itabs     map[string]bool               // "pkg.T,pkg.Iface" conversions
	fns       []*fn                         // every walked function
	ifaces    map[string]*ast.InterfaceType // module interfaces by "pkg.Name"
	tests     map[string]map[string]bool    // test name → keys of the functions it uses
	kit       map[string]map[string]bool    // test-kit function key → keys it uses
	hostCalls map[string]bool               // core's host table keys
}

func main() {
	allowPath := flag.String("allow", "", "allow file (name, then reason, one per line)")
	flag.Parse()
	out, err := exec.Command("go", "list", "-m").Output()
	check(err)
	modPath := strings.TrimSpace(string(out))
	c := &census{linked: map[string]bool{}, itabs: map[string]bool{}, ifaces: map[string]*ast.InterfaceType{},
		tests: map[string]map[string]bool{}, kit: map[string]map[string]bool{}, hostCalls: map[string]bool{}}
	for _, arg := range flag.Args() {
		pkg, file, ok := strings.Cut(arg, "=")
		if !ok {
			check(fmt.Errorf("argument %q is not <main package>=<nm file>", arg))
		}
		check(c.readSymbols(file, pkg))
	}
	check(c.walk(modPath))

	byName := map[string]*fn{}
	var unlinked []*fn
	total := 0
	for _, f := range c.fns {
		byName[f.name] = f
		if !c.isLinked(f) {
			unlinked = append(unlinked, f)
			total += f.lines
		}
	}
	sort.Slice(unlinked, func(i, j int) bool { return unlinked[i].name < unlinked[j].name })
	for _, f := range unlinked {
		fmt.Printf("%5d %s\n", f.lines, f.name)
	}
	fmt.Printf("unlinked: %d functions, %d lines\n", len(unlinked), total)

	allow, bad := readAllow(*allowPath)
	for name, why := range allow {
		f := byName[name]
		switch {
		case f == nil:
			bad = append(bad, "allowed but gone: "+name)
		case c.isLinked(f):
			bad = append(bad, "allowed but linked: "+name)
		default:
			if msg := c.checkReason(f, why); msg != "" {
				bad = append(bad, fmt.Sprintf("%s: %q does not hold: %s", name, why, msg))
			}
		}
	}
	for _, f := range unlinked {
		if _, ok := allow[f.name]; !ok {
			bad = append(bad, fmt.Sprintf("unlinked and not allowed: %s (%d lines)", f.name, f.lines))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "FAIL:", b)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(2)
	}
}

var initN = regexp.MustCompile(`\.init\.\d+$`)

// readSymbols adds one `go tool nm` listing to the census, normalised: a
// generic instantiation `F[go.shape.int]` counts as `F`, the numbered
// `init.N` as `init`, and `main.` as the main package's path. Interface
// tables (`go:itab.*T,I`) record which types a binary converts to which
// interfaces.
func (c *census) readSymbols(file, mainPkg string) error {
	fh, err := os.Open(file)
	if err != nil {
		return err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		// "<addr> <type> <name>"; a name may hold spaces (shape types).
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		name := stripBrackets(strings.Join(f[2:], " "))
		if itab, ok := strings.CutPrefix(name, "go:itab."); ok {
			c.itabs[strings.TrimPrefix(itab, "*")] = true
			continue
		}
		if rest, ok := strings.CutPrefix(name, "main."); ok {
			name = mainPkg + "." + rest
		}
		c.linked[initN.ReplaceAllString(name, ".init")] = true
	}
	return sc.Err()
}

func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func (c *census) isLinked(f *fn) bool {
	for _, s := range f.syms {
		if c.linked[s] {
			return true
		}
	}
	return false
}

// listed is one package of `go list -test -deps -export -json`.
type listed struct {
	ImportPath, Dir, Export, ForTest string
	GoFiles                          []string
	ImportMap                        map[string]string
}

// walk reads the module's packages as `go list` finds them, building the
// export data of each package and test variant on the way: the functions,
// interfaces and host calls of every non-test package, and what each test
// and test-kit function refers to, type-checked, so that a `test seam`
// reason names the very function a test calls, not a namesake.
func (c *census) walk(modPath string) error {
	out, err := exec.Command("go", "list", "-test", "-deps", "-export",
		"-json=ImportPath,Dir,Export,ForTest,GoFiles,ImportMap", "./...").Output()
	if err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	var pkgs []listed
	export := map[string]string{}
	for dec := json.NewDecoder(strings.NewReader(string(out))); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		export[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	for _, p := range pkgs {
		path, _, _ := strings.Cut(p.ImportPath, " ")
		rel, inModule := strings.CutPrefix(path+"/", modPath+"/")
		if rel = strings.TrimSuffix(rel, "/"); rel == "" {
			rel = "faasm" // the root package's display name
		}
		if !inModule || rel == self || strings.HasSuffix(path, ".test") {
			continue // outside the module, this command, or a generated test main
		}
		plain := path == p.ImportPath && p.ForTest == ""
		var files []*ast.File
		tests := false
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			tests = tests || strings.HasSuffix(name, "_test.go")
		}
		switch {
		case plain && testKits[rel]:
			if err := c.addUses(c.kit, path+".", p, fset, files, export); err != nil {
				return err
			}
		case plain:
			for _, file := range files {
				c.addHostCalls(file)
				for _, decl := range file.Decls {
					switch decl := decl.(type) {
					case *ast.GenDecl:
						c.addDecl(path, decl)
					case *ast.FuncDecl:
						if decl.Name.Name != "_" {
							c.fns = append(c.fns, newFn(fset, path, rel, decl))
						}
					}
				}
			}
		case tests:
			if err := c.addUses(c.tests, "", p, fset, files, export); err != nil {
				return err
			}
		}
	}
	return nil
}

func newFn(fset *token.FileSet, pkg, short string, decl *ast.FuncDecl) *fn {
	f := &fn{mname: decl.Name.Name, lines: fset.Position(decl.End()).Line - fset.Position(decl.Pos()).Line + 1}
	if decl.Recv == nil {
		f.name = short + "." + f.mname
		f.syms = []string{pkg + "." + f.mname}
		f.key = f.syms[0]
		return f
	}
	typ, ptr := recvType(decl.Recv.List[0].Type)
	f.recv = pkg + "." + typ
	f.marker = decl.Type.Params.NumFields() == 0 && decl.Type.Results.NumFields() == 0 && len(decl.Body.List) == 0
	f.syms = []string{pkg + ".(*" + typ + ")." + f.mname}
	if ptr {
		f.name = short + ".(*" + typ + ")." + f.mname
		f.key = "(*" + f.recv + ")." + f.mname
	} else {
		f.name = short + "." + typ + "." + f.mname
		f.syms = append(f.syms, pkg+"."+typ+"."+f.mname)
		f.key = "(" + f.recv + ")." + f.mname
	}
	return f
}

// recvType returns a receiver's base type name, without type parameters,
// and whether it is a pointer receiver.
func recvType(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	return e.(*ast.Ident).Name, ptr
}

// addDecl records interface types.
func (c *census) addDecl(pkg string, decl *ast.GenDecl) {
	for _, spec := range decl.Specs {
		if ts, ok := spec.(*ast.TypeSpec); ok {
			if it, ok := ts.Type.(*ast.InterfaceType); ok {
				c.ifaces[pkg+"."+ts.Name.Name] = it
			}
		}
	}
}

// addHostCalls records the string keys of whatever is assigned to
// hostTable, the host interface of core's Faaslets.
func (c *census) addHostCalls(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); !ok || id.Name != "hostTable" {
			return true
		}
		ast.Inspect(as.Rhs[0], func(n ast.Node) bool {
			if kv, ok := n.(*ast.KeyValueExpr); ok {
				if lit, ok := kv.Key.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if k, err := strconv.Unquote(lit.Value); err == nil {
						c.hostCalls[k] = true
					}
				}
			}
			return true
		})
		return false
	})
}

// addUses type-checks p against the export data of its imports and records
// each function of its test files (every file, for a test kit) under
// prefix+name with the keys of the functions and methods its body refers to.
func (c *census) addUses(into map[string]map[string]bool, prefix string, p listed, fset *token.FileSet, files []*ast.File, export map[string]string) error {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(imp string) (io.ReadCloser, error) {
		if id, ok := p.ImportMap[imp]; ok {
			imp = id
		}
		return os.Open(export[imp])
	})}
	path, _, _ := strings.Cut(p.ImportPath, " ")
	if _, err := conf.Check(path, fset, files, info); err != nil {
		return fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
	}
	for _, file := range files {
		if prefix == "" && !strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			used := into[prefix+fd.Name.Name]
			if used == nil {
				used = map[string]bool{}
				into[prefix+fd.Name.Name] = used
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := info.Uses[id].(*types.Func); ok {
						used[stripBrackets(fn.Origin().FullName())] = true
					}
				}
				return true
			})
		}
	}
	return nil
}

// hasMethod reports whether the module interface named by key declares m,
// directly or through an interface it embeds from its own package.
func (c *census) hasMethod(key, m string) bool {
	it := c.ifaces[key]
	if it == nil {
		return false
	}
	pkg := key[:strings.LastIndex(key, ".")]
	for _, field := range it.Methods.List {
		if len(field.Names) == 0 {
			if id, ok := field.Type.(*ast.Ident); ok && c.hasMethod(pkg+"."+id.Name, m) {
				return true
			}
		}
		for _, n := range field.Names {
			if n.Name == m {
				return true
			}
		}
	}
	return false
}

// readAllow reads "<name> <reason>" lines; '#' starts a comment.
func readAllow(path string) (map[string]string, []string) {
	allow := map[string]string{}
	var bad []string
	if path == "" {
		return allow, nil
	}
	b, err := os.ReadFile(path)
	check(err)
	for i, l := range strings.Split(string(b), "\n") {
		if c := strings.Index(l, "#"); c >= 0 {
			l = l[:c]
		}
		name, why, _ := strings.Cut(strings.TrimSpace(l), " ")
		why = strings.TrimSpace(why)
		switch {
		case name == "":
		case !reason.MatchString(why):
			bad = append(bad, fmt.Sprintf("%s:%d: %q is not a reason from the closed set", path, i+1, why))
		case allow[name] != "":
			bad = append(bad, fmt.Sprintf("%s:%d: %s allowed twice", path, i+1, name))
		default:
			allow[name] = why
		}
	}
	return allow, bad
}

// checkReason returns why an allowed entry's reason does not hold for it,
// or "".
func (c *census) checkReason(f *fn, why string) string {
	switch {
	case strings.HasPrefix(why, "test seam "):
		t := strings.TrimPrefix(why, "test seam ")
		used, ok := c.tests[t]
		if !ok {
			return "no test named " + t
		}
		if used[f.key] {
			return ""
		}
		for k, kused := range c.kit {
			if used[k] && kused[f.key] {
				return ""
			}
		}
		return t + " does not refer to " + f.key + ", nor through a test kit"
	case strings.HasPrefix(why, "interface "):
		iface, m, _ := strings.Cut(strings.TrimPrefix(why, "interface "), ".")
		if m != f.mname || f.recv == "" {
			return "not a method " + m
		}
		for key := range c.ifaces {
			if !strings.HasSuffix(key, "."+iface) || !c.hasMethod(key, m) || !c.itabs[f.recv+","+key] {
				continue
			}
			if f.marker {
				return ""
			}
			for _, g := range c.fns {
				if g != f && g.mname == m && g.recv != "" && c.isLinked(g) {
					return ""
				}
			}
			return "no implementation of " + m + " is linked"
		}
		return "no binary converts the receiver to an interface " + iface + " with " + m
	case strings.HasPrefix(why, "Table 2 "):
		if call := strings.TrimPrefix(why, "Table 2 "); !c.hostCalls[call] {
			return call + " is not a host call"
		}
	case why == "public API":
		if !strings.HasPrefix(f.name, "faasm.") {
			return "not in the root package"
		}
	case strings.HasPrefix(why, "item "):
		if p, ok := items[strings.TrimPrefix(why, "item ")]; !ok || !strings.HasPrefix(f.name, p) {
			return "that item does not schedule it"
		}
	}
	return ""
}
