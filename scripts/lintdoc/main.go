// Command lintdoc enforces godoc coverage on a package's exported
// surface: every exported type, function, method (on an exported
// receiver), and const/var block must carry a doc comment. It is the
// scripts/check.sh lint step, run over every package `go list ./internal/...
// ./conc` names; stdlib-only, so the gate needs no tools beyond the
// toolchain.
//
// Usage: lintdoc [package-dir ...]   (default ./internal/det)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"./internal/det"}
	}
	bad := 0
	for _, dir := range dirs {
		missing, err := lintDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lintdoc:", err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, m)
		}
		bad += len(missing)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "lintdoc: %d exported declaration(s) missing doc comments\n", bad)
		os.Exit(1)
	}
}

// lintDir parses one package directory (tests excluded) and returns a
// "file:line: name" entry for every undocumented exported declaration.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !receiverExported(d) {
						continue
					}
					if d.Doc == nil {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					// A doc comment on the block covers every spec in it
					// (the const/iota idiom); otherwise each exported spec
					// needs its own.
					if d.Doc != nil {
						continue
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							if s.Doc != nil || s.Comment != nil {
								continue
							}
							for _, name := range s.Names {
								if name.IsExported() {
									report(name.Pos(), d.Tok.String(), name.Name)
									break
								}
							}
						}
					}
				}
			}
		}
	}
	return missing, nil
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the godoc surface).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}
