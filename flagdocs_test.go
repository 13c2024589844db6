package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFlagTablesMatchCode keeps each daemon's README flag table and its
// flag definitions in step: the set of flag.<Type>("name", ...) literals
// in the command's main.go must equal the set of `-name` cells in the
// first column of the table under that daemon's heading.
func TestFlagTablesMatchCode(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, daemon := range []string{"supremm-serve", "supremm-ingestd"} {
		code := definedFlags(t, "cmd/"+daemon+"/main.go")
		docs := tabulatedFlags(t, string(readme), "### `"+daemon+"` flags")
		if got, want := strings.Join(docs, " "), strings.Join(code, " "); got != want {
			t.Errorf("%s: README tabulates\n  %s\nmain.go defines\n  %s", daemon, got, want)
		}
	}
}

// definedFlags returns, sorted, the name of every flag.X("name", ...)
// call in a Go source file.
func definedFlags(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, "-"+name)
		}
		return true
	})
	sort.Strings(names)
	return names
}

var flagCell = regexp.MustCompile("`(-[a-z-]+)`")

// tabulatedFlags returns, sorted, every `-name` in the first column of
// the first markdown table after the heading line.
func tabulatedFlags(t *testing.T, readme, heading string) []string {
	t.Helper()
	_, after, ok := strings.Cut(readme, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("README has no %q section", heading)
	}
	var names []string
	inTable := false
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cell, _, _ := strings.Cut(line[1:], "|")
		for _, m := range flagCell.FindAllStringSubmatch(cell, -1) {
			names = append(names, m[1])
		}
	}
	sort.Strings(names)
	return names
}
