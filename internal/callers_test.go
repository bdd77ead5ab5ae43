// Package internal_test holds the product-caller gate: every package-level
// declaration in a non-test file of internal/ must be used by a non-test
// file of the module outside that declaration. cmd/ and bench/ count as
// users; tests do not, so code only a test calls lives in a _test.go file.
package internal_test

import (
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// callerAllowlist names the declarations allowed to have no product caller
// yet, each with the ROADMAP item that decides whether it gets one.
var callerAllowlist = map[string]string{
	"features.(*Pipeline).Explain": "item 8f: the /explain audit view",
	"features.FormatContributions": "item 8f: the /explain audit view",
	"structure.AgreementCluster":   "item 14d: §6.2's relaxation in a one-to-one decode",
}

func TestEveryDeclarationHasAProductCaller(t *testing.T) {
	problems, err := productCallerGate("..", callerAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestProductCallerGateOnSyntheticModule(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.24\n",
		"internal/a/a.go": `package a

type Speaker interface{ Speak() string }

type T struct{}

func (T) Speak() string   { return "t" } // used only through Speaker
func (T) Orphan()          {}
func Orphan()              {}
func Recursive(n int) int { return Recursive(n - 1) }
func TestOnly()            {}
func ForMain() Speaker     { return T{} }
`,
		"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestTestOnly(t *testing.T) { TestOnly() }\n",
		"cmd/x/main.go":        "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { println(a.ForMain().Speak()) }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	orphans := []string{
		"no product caller: a.Orphan",
		"no product caller: a.Recursive",
		"no product caller: a.T.Orphan",
		"no product caller: a.TestOnly",
	}
	for _, tc := range []struct {
		allow map[string]string
		want  []string
	}{
		{nil, orphans},
		{map[string]string{"a.Orphan": "kept"}, orphans[1:]},
		{map[string]string{"a.Gone": "kept"}, append(slices.Clip(orphans), "stale allowlist entry: a.Gone names no declaration")},
		{map[string]string{"a.ForMain": "kept"}, append(slices.Clip(orphans), "stale allowlist entry: a.ForMain has a product caller")},
	} {
		got, err := productCallerGate(root, tc.allow)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("allowlist %v: gate reported\n%s\nwant\n%s", tc.allow, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}

// productCallerGate type-checks every non-test package of the module rooted
// at root and returns, sorted, one line per declaration of internal/ that no
// non-test file uses outside that declaration, and one per stale allowlist
// entry. A method is exempt when a type holding it satisfies an interface
// that has the method: a call through that interface does not name it.
func productCallerGate(root string, allow map[string]string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}

	type decl struct {
		name     string
		from, to token.Pos
		used     bool
	}
	decls := map[types.Object]*decl{}
	receivers := map[*ast.Ident]bool{} // a receiver names its type without using it
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.types.Path(), m.path+"/internal/") {
			continue
		}
		add := func(id *ast.Ident, node ast.Node) {
			if id.Name != "_" && id.Name != "main" && id.Name != "init" {
				obj := p.info.Defs[id]
				decls[obj] = &decl{name: objectName(obj), from: node.Pos(), to: node.End()}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d)
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s)
							}
						}
					}
				}
			}
		}
	}

	for _, p := range m.pkgs {
		for id, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if d := decls[obj]; d != nil && !receivers[id] && (id.Pos() < d.from || id.Pos() >= d.to) {
				d.used = true
			}
		}
	}

	// A method reached through an interface: some type of the module (its
	// receiver, or one embedding it) has it in its method set and
	// implements an interface that has it.
	byMethod := m.interfacesByMethod()
	for _, p := range m.pkgs {
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				mset := types.NewMethodSet(t)
				for i := range mset.Len() {
					d := decls[mset.At(i).Obj().(*types.Func).Origin()]
					for _, iface := range byMethod[mset.At(i).Obj().Name()] {
						if d != nil && !d.used && types.Implements(t, iface) {
							d.used = true
						}
					}
				}
			}
		}
	}

	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		switch _, allowed := allow[d.name]; {
		case !d.used && !allowed:
			problems = append(problems, "no product caller: "+d.name)
		case d.used && allowed:
			problems = append(problems, "stale allowlist entry: "+d.name+" has a product caller")
		}
	}
	for name := range allow {
		if !declared[name] {
			problems = append(problems, "stale allowlist entry: "+name+" names no declaration")
		}
	}
	slices.Sort(problems)
	return problems, nil
}

// objectName spells a declaration the way the allowlist does:
// pkg.Name, pkg.T.Method or pkg.(*T).Method.
func objectName(obj types.Object) string {
	pkg := obj.Pkg().Name() + "."
	if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
		recv := types.TypeString(f.Signature().Recv().Type(), func(*types.Package) string { return "" })
		if recv[0] == '*' {
			recv = "(" + recv + ")"
		}
		pkg += recv + "."
	}
	return pkg + obj.Name()
}

type modulePackage struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module type-checks a Go module's packages from source through one shared
// importer, so a declaration and its uses in other packages resolve to the
// same types.Object. The standard library comes from its source too.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.ImporterFrom
	byDir      map[string]*modulePackage
	pkgs       []*modulePackage
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func loadModule(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	match := moduleLine.FindSubmatch(gomod)
	if match == nil {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	// The module has no cgo; checking the standard library without it
	// avoids running the cgo tool and sees the same exported API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &module{root: root, path: string(match[1]), fset: fset, byDir: map[string]*modulePackage{},
		std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	return m, filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if name := e.Name(); dir != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		_, err = m.load(dir)
		return err
	})
}

// load type-checks the package in dir once, from the files go/build picks
// for this host; a directory with no non-test Go file yields nil.
func (m *module) load(dir string) (*modulePackage, error) {
	if p, ok := m.byDir[dir]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if _, noGo := err.(*build.NoGoError); noGo {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	p := &modulePackage{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	rel, _ := filepath.Rel(m.root, dir)
	var errs []error
	conf := types.Config{Importer: m, Error: func(err error) { errs = append(errs, err) }}
	p.types, _ = conf.Check(path.Join(m.path, filepath.ToSlash(rel)), m.fset, p.files, p.info)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	m.byDir[dir] = p
	m.pkgs = append(m.pkgs, p)
	return p, nil
}

func (m *module) Import(path string) (*types.Package, error) { return m.ImportFrom(path, m.root, 0) }

func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, m.path)
	if !ok || rel != "" && rel[0] != '/' {
		return m.std.ImportFrom(path, dir, mode)
	}
	p, err := m.load(filepath.Join(m.root, filepath.FromSlash(rel)))
	if p == nil {
		return nil, cmp.Or(err, fmt.Errorf("%s has no non-test Go files", path))
	}
	return p.types, nil
}

// interfacesByMethod indexes, by method name, every non-empty named
// interface declared in the module or in a package it imports
// (transitively), error, and the interfaces the errors package spells
// inline to unwrap.
func (m *module) interfacesByMethod() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.IsMethodSet() {
			for i := range iface.NumMethods() {
				name := iface.Method(i).Name()
				byMethod[name] = append(byMethod[name], iface)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, src := range []string{"interface{ Unwrap() error }", "interface{ Unwrap() []error }",
		"interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, _ := types.Eval(m.fset, nil, token.NoPos, src)
		add(tv.Type)
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams() == nil {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p.types)
	}
	return byMethod
}
