package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// knobAllowlist names the exported *Config/*Options fields that nothing
// outside their package sets on purpose. Each entry says why the field
// is not a one-valued knob.
var knobAllowlist = map[string]string{
	"internal/core.PipelineConfig.NumJobs": "every caller sets it, through DefaultPipelineConfig's numJobs argument",
	"internal/core.PipelineConfig.Machine": "one value today (Stampede), but bench/, supremm-serve and supremm-report read cfg.Machine for the node count utilization is measured against",

	"internal/apps.PoolConfig.NearCommunityFrac": "two values in use: the Uncategorized (0.22) and NA (0.15) pools, both spelled in apps",
	"internal/apps.PoolConfig.NA":                "two values in use: it is what tells the NA pool from the Uncategorized one",

	"internal/taccstats.Config.Period":       stampedeRecord,
	"internal/taccstats.Config.CoresPerNode": stampedeRecord,
	"internal/taccstats.Config.ClockHz":      stampedeRecord,
	"internal/taccstats.Config.UserHz":       stampedeRecord,
}

const stampedeRecord = "Stampede's hardware description, a record Collect and Summarize (signatures bench/ calls) read; nothing defaults it field by field"

// maxConfigFields caps the exported *Config/*Options fields, so adding a
// knob is an edit here that review sees. Lower it when fields go.
const maxConfigFields = 136

// TestConfigFieldsHaveASetter is the Options rule ("with one value in
// use, ask for a constant") as a sweep: every exported field of every
// *Config / *Options struct must be set — as a composite-literal key of
// that type, or as the target of an assignment — somewhere other than
// the non-test files of the package that declares it: by a command,
// another package, bench/, or a test that needs the value to reach a
// behaviour. A field only its own package's defaults ever fill is a
// constant with a doc comment and a default branch; it fails here by
// name. The total may not exceed maxConfigFields.
//
// The sweep is syntactic (go/parser, no type checker): literals are
// matched by their spelled type, resolved through the file's imports;
// assignments by the field name alone, so two structs sharing a field
// name vouch for each other there.
func TestConfigFieldsHaveASetter(t *testing.T) {
	type file struct {
		dir  string // slash-separated, relative to the repo root
		test bool
		ast  *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(p)), strings.HasSuffix(p, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every exported field of every *Config / *Options struct declared in
	// a non-test file. testkit.SynthConfig shapes synthetic test data and
	// is not product configuration.
	type typeKey struct{ dir, name string }
	knobs := map[typeKey][]string{}
	total := 0
	for _, f := range files {
		if f.test || f.dir == "internal/testkit" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			k := typeKey{f.dir, ts.Name.Name}
			knobs[k] = []string{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.IsExported() {
						knobs[k] = append(knobs[k], name.Name)
						total++
					}
				}
			}
			return true
		})
	}

	// A setter's origin is its directory, with test files kept apart so
	// that a package's own tests count as outside its non-test files.
	origin := func(f file) string {
		if f.test {
			return f.dir + " (test)"
		}
		return f.dir
	}
	type fieldKey struct {
		typeKey
		field string
	}
	keyed := map[fieldKey]map[string]bool{}  // set as a literal key of that type
	assigned := map[string]map[string]bool{} // set as x.Field = v, by field name
	mark := func(m map[string]bool, o string) map[string]bool {
		if m == nil {
			m = map[string]bool{}
		}
		m[o] = true
		return m
	}
	for _, f := range files {
		imports := map[string]string{} // local package name -> directory
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, "repro/")
			if !ok {
				continue
			}
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		resolve := func(e ast.Expr) (typeKey, bool) {
			switch e := e.(type) {
			case *ast.Ident:
				return typeKey{f.dir, e.Name}, true
			case *ast.SelectorExpr:
				if q, ok := e.X.(*ast.Ident); ok && imports[q.Name] != "" {
					return typeKey{imports[q.Name], e.Sel.Name}, true
				}
			}
			return typeKey{}, false
		}
		o := origin(f)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				// Hand an elided element type ([]T{{...}}, map[K]T{k: {...}})
				// down to the inner literals, which Inspect visits next.
				var elt ast.Expr
				switch ct := n.Type.(type) {
				case *ast.ArrayType:
					elt = ct.Elt
				case *ast.MapType:
					elt = ct.Value
				}
				if star, ok := elt.(*ast.StarExpr); ok {
					elt = star.X
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil {
						inner.Type = elt
					}
				}
				k, ok := resolve(n.Type)
				if _, knob := knobs[k]; !ok || !knob {
					return true
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							fk := fieldKey{k, id.Name}
							keyed[fk] = mark(keyed[fk], o)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						assigned[sel.Sel.Name] = mark(assigned[sel.Sel.Name], o)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					assigned[sel.Sel.Name] = mark(assigned[sel.Sel.Name], o)
				}
			}
			return true
		})
	}

	setOutside := func(origins map[string]bool, dir string) bool {
		for o := range origins {
			if o != dir {
				return true
			}
		}
		return false
	}
	var unset []string
	for k, fields := range knobs {
		for _, fld := range fields {
			name := k.dir + "." + k.name + "." + fld
			if setOutside(keyed[fieldKey{k, fld}], k.dir) || setOutside(assigned[fld], k.dir) {
				if why, ok := knobAllowlist[name]; ok {
					t.Errorf("%s is allowlisted (%s) but has a setter; drop the entry", name, why)
				}
				continue
			}
			if _, ok := knobAllowlist[name]; !ok {
				unset = append(unset, name+": nothing outside "+k.dir+"'s non-test files sets it; make it a constant there")
			}
		}
	}
	sort.Strings(unset)
	for _, msg := range unset {
		t.Error(msg)
	}
	t.Logf("%d exported fields across %d *Config/*Options structs", total, len(knobs))
	if total > maxConfigFields {
		t.Errorf("%d exported config fields exceed the ceiling of %d: make the new field a constant, or raise maxConfigFields in review", total, maxConfigFields)
	}
}
