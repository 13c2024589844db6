package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// exportAllowlist names the exported functions and methods that no
// program calls but that stay on purpose. Each entry says why. A name
// is the declaring package's directory relative to the repo root, then
// the receiver type for a method, then the function.
var exportAllowlist = map[string]string{
	"internal/core.JobClassifier.ClassifyInterpreted": "oracle: compiled serving is held to the interpreted models through it",
	"internal/lifecycle.Baseline.FeaturePSI":          "oracle: the drift score the loop keeps incrementally is held to this recount from the rows",

	"internal/ml/forest.Classifier.OOBError":      "golden-pinned: forest.golden records the out-of-bag error",
	"internal/ml/forest.Regressor.OOBR2":          "golden-pinned: forest_ties.golden records the out-of-bag R²",
	"internal/ml/svm.Model.NumSupportVectors":     "golden-pinned: svm.golden records the support-vector count",
	"internal/ml/svm.Regressor.NumSupportVectors": "the ε-tube's sparsity, which the SVR tests check, shows only through it",
	"internal/ml/eval.CrossValidate":              "golden-pinned: eval.golden and the worker-parity tests run the k-fold driver through it",

	"internal/taccstats.NewSchemaSet":   "the TACC_Stats schema the collector's counter tests check Collect's output against",
	"internal/taccstats.DefaultSchemas": "the TACC_Stats schema the collector's counter tests check Collect's output against",

	"internal/resilience.Limiter.Executing": "leak probe: tests prove every admitted call released its slot",
	"internal/resilience.Limiter.Waiting":   "leak probe: tests prove no queued waiter is stranded",

	"internal/core.JobClassifier.SaveBytes": "the in-memory Save the snapshot goldens, fuzz and hostile-snapshot tests round-trip through",
	"internal/dataset.Dataset.Apply":        "a fitted scaler over a whole dataset; the scaler tests check it against per-row Transform",
}

// TestExportsHaveAProgramCaller is the dead-export sweep: every
// exported function, and every exported method of an exported type,
// declared in a non-test file of either module (the root and bench/)
// must be referenced from some non-test file other than its own body,
// implement an interface method, or carry an allowlist entry.
// internal/testkit is test support and is not swept.
//
// The sweep type-checks with go/types rather than matching names, so
// one type's method never vouches for another's: standard-library
// packages come from their export data, and each module's own packages
// are checked from source in `go list -deps` order.
func TestExportsHaveAProgramCaller(t *testing.T) {
	start := time.Now()
	type listed struct {
		ImportPath string
		Dir        string
		GoFiles    []string
		Standard   bool
		Export     string
		Module     *struct{ Path string }
	}
	list := func(dir string) []listed {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		var pkgs []listed
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listed
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			pkgs = append(pkgs, p)
		}
		return pkgs
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	// The root module's packages, then bench/'s own on top of them.
	exports := map[string]string{}
	var own []listed
	for _, mod := range []struct{ dir, path string }{{root, "repro"}, {filepath.Join(root, "bench"), "repro/bench"}} {
		for _, p := range list(mod.dir) {
			if p.Standard {
				exports[p.ImportPath] = p.Export
			} else if p.Module != nil && p.Module.Path == mod.path {
				own = append(own, p)
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	type pkgInfo struct {
		rel   string // directory relative to the repo root
		files []*ast.File
		info  *types.Info
	}
	var pkgs []pkgInfo
	for _, p := range own {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkgInfo{filepath.ToSlash(rel), files, info})
	}

	// Every interface in sight: the named ones of each package the
	// modules reach, standard library included, and the literal ones
	// the modules spell.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, dep := range p.Imports() {
			visit(dep)
		}
	}
	for _, p := range checked {
		visit(p)
	}
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	// References from non-test files, a function's own body excepted.
	called := map[*types.Func]bool{}
	type decl struct {
		name string
		fn   *types.Func
	}
	var decls []decl
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name].(*types.Func)
					name := fd.Name.Name
					if fd.Recv != nil {
						name = recvName(fd.Recv.List[0].Type) + "." + name
					}
					if ast.IsExported(name) && fd.Name.IsExported() && p.rel != "internal/testkit" {
						decls = append(decls, decl{p.rel + "." + name, self})
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							called[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	var dead []string
	live := map[string]bool{}
	for _, d := range decls {
		live[d.name] = true
		isCalled := called[d.fn] || (d.fn.Type().(*types.Signature).Recv() != nil && implements(d.fn))
		why, listed := exportAllowlist[d.name]
		switch {
		case isCalled && listed:
			t.Errorf("%s is allowlisted (%s) but a program calls it; drop the entry", d.name, why)
		case !isCalled && !listed:
			dead = append(dead, d.name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s: exported, but no non-test file calls it; delete it, or allowlist it with a reason", name)
	}
	for name, why := range exportAllowlist {
		if !live[name] {
			t.Errorf("%s is allowlisted but not declared; drop the entry", name)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("%s is allowlisted without a reason", name)
		}
	}
	t.Logf("%d exports across %d packages swept in %v", len(decls), len(pkgs), time.Since(start).Round(time.Millisecond))
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvName is a method receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
