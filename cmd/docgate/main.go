// Command docgate fails (exit 1) when any package in the repository lacks a
// package-level doc comment, or when an exported top-level declaration in
// the listed API-surface packages is undocumented. CI runs it in the docs
// job so the prose contract of ARCHITECTURE.md — every package explains
// itself — cannot rot as packages are added.
//
// It also fails when ARCHITECTURE.md cites a Test…, Fuzz… or Benchmark… name
// no function has, or an alternative of a -run pattern in the CI workflow
// matches no test ('^$' runs none on purpose), so a renamed test cannot leave
// the prose or a CI step pointing at nothing.
//
// Usage:
//
//	docgate [-root .]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// exportedDocPackages lists the packages whose exported symbols must each
// carry a doc comment (the library surface other packages build on). The
// package-comment rule applies to every package regardless.
var exportedDocPackages = map[string]bool{
	"internal/sparse": true,
	"internal/graph":  true,
	"internal/core":   true,
	"internal/serve":  true,
	"internal/shard":  true,
	"internal/qos":    true,
	"internal/cache":  true,
	"internal/kernel": true,
	"internal/mat":    true,
	"internal/obs":    true,
	"internal/par":    true,
	"internal/chaos":  true,
}

func main() {
	root := flag.String("root", ".", "module root to scan")
	flag.Parse()

	dirs := map[string][]string{} // dir -> .go files
	err := filepath.WalkDir(*root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && path != *root || name == "testdata" || name == "results" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "docgate:", err)
		os.Exit(2)
	}

	var missing []string
	funcs := map[string]bool{} // top-level function names, tests included
	fset := token.NewFileSet()
	for dir, files := range dirs {
		sort.Strings(files)
		rel, _ := filepath.Rel(*root, dir)
		hasDoc := false
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				fmt.Fprintf(os.Stderr, "docgate: %s: %v\n", path, err)
				os.Exit(2)
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					funcs[fd.Name.Name] = true
				}
			}
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasDoc = true
			}
			if exportedDocPackages[filepath.ToSlash(rel)] {
				missing = append(missing, undocumentedExports(fset, path, f)...)
			}
		}
		if !hasDoc {
			missing = append(missing, fmt.Sprintf("%s: package has no doc comment", rel))
		}
	}

	cites, err := unresolved(*root, funcs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docgate:", err)
		os.Exit(2)
	}
	if missing = append(missing, cites...); len(missing) > 0 {
		sort.Strings(missing)
		fmt.Println("docgate: missing documentation or unresolved citations:")
		for _, m := range slices.Compact(missing) {
			fmt.Println("  " + m)
		}
		os.Exit(1)
	}
	fmt.Printf("docgate: OK (%d packages)\n", len(dirs))
}

// undocumentedExports lists exported top-level declarations without a doc
// comment. Only package-level functions and types gate: methods hang off a
// documented type and const/var blocks usually document the group, so
// flagging each member would add noise, not coverage.
func undocumentedExports(fset *token.FileSet, path string, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", path, p.Line, what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil || !d.Name.IsExported() {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil {
					report(ts.Pos(), "type", ts.Name.Name)
				}
			}
		}
	}
	return out
}

var (
	citedName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	runFlag   = regexp.MustCompile(`go test [^\n]*?-run[ =](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	runnable  = regexp.MustCompile(`^(?:Test|Fuzz|Example)`)
)

// unresolved lists the names ARCHITECTURE.md cites that no function in funcs
// has, and the alternatives of the first, function-naming level of ci.yml's
// -run patterns that match no test, fuzz target or example.
func unresolved(root string, funcs map[string]bool) ([]string, error) {
	doc, err := os.ReadFile(filepath.Join(root, "ARCHITECTURE.md"))
	if err != nil {
		return nil, err
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, name := range citedName.FindAllString(string(doc), -1) {
		if !funcs[name] {
			out = append(out, "ARCHITECTURE.md cites "+name+", which no function has")
		}
	}
	for _, m := range runFlag.FindAllStringSubmatch(string(ci), -1) {
		level, _, _ := strings.Cut(m[1]+m[2]+m[3], "/")
		for _, alt := range strings.Split(level, "|") {
			re, err := regexp.Compile(alt) // matched unanchored, as go test does
			runs := alt == "^$"
			for name := range funcs {
				runs = runs || err == nil && runnable.MatchString(name) && re.MatchString(name)
			}
			if !runs {
				out = append(out, fmt.Sprintf("ci.yml: -run alternative %q matches no test", alt))
			}
		}
	}
	return out, nil
}
