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

// TestFlagTablesMatchCode keeps every command's documented flags and its
// flag definitions in step: the set of flag.<Type>("name", ...) literals
// in the command's main.go must equal the set of -name tokens in the
// "Usage:" block of its doc comment and, for the daemon, the set of
// `-name` cells in the first column of the README table under its
// heading.
func TestFlagTablesMatchCode(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cmd         string
		readmeTable bool
	}{
		{"supremm-serve", true},
		{"supremm-load", false},
		{"supremm-gen", false}, {"supremm-collect", false}, {"supremm-classify", false},
		{"supremm-report", false}, {"supremm-paper", false},
	} {
		code, usage := definedFlags(t, "cmd/"+c.cmd+"/main.go")
		want := strings.Join(code, " ")
		if got := strings.Join(usage, " "); got != want {
			t.Errorf("%s: Usage comment names\n  %s\nmain.go defines\n  %s", c.cmd, got, want)
		}
		if !c.readmeTable {
			continue
		}
		docs := tabulatedFlags(t, string(readme), "### `"+c.cmd+"` flags")
		if got := strings.Join(docs, " "); got != want {
			t.Errorf("%s: README tabulates\n  %s\nmain.go defines\n  %s", c.cmd, got, want)
		}
	}
}

var usageFlag = regexp.MustCompile(`(?:^|[\s\[|])(-[A-Za-z][A-Za-z-]*)`)

// definedFlags returns, each sorted and de-duplicated, the name of every
// flag.X("name", ...) call in a command's source file (or fs.X("name",
// ...) on a set made by fs := flag.NewFlagSet(...)), and every -name
// token in the indented synopsis under "Usage:" in its doc comment.
func definedFlags(t *testing.T, path string) (names, usage []string) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	_, synopsis, ok := strings.Cut(f.Doc.Text(), "Usage:\n")
	if !ok {
		t.Fatalf("%s: doc comment has no Usage: block", path)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimLeft(synopsis, "\n"), "\n") {
		if !strings.HasPrefix(line, "\t") {
			break // the synopsis is the indented block; prose follows
		}
		for _, m := range usageFlag.FindAllStringSubmatch(line, -1) {
			if !seen[m[1]] {
				seen[m[1]] = true
				usage = append(usage, m[1])
			}
		}
	}
	sort.Strings(usage)
	definers := map[string]bool{"flag": true}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewFlagSet" {
					if id, ok := as.Lhs[0].(*ast.Ident); ok {
						definers[id.Name] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name == "NewFlagSet" {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || !definers[recv.Name] {
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
	return names, usage
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
