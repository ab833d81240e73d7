package pacman_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unusedExportAllowList names the exported identifiers in internal/ that no
// non-test file references but that stay anyway, each with the reason. An
// entry that gains a non-test user is stale and fails the gate too.
var unusedExportAllowList = map[string]string{
	"wire.StatusError.Unwrap": "errors.Is and errors.As call it through the standard library, never by name",
	"checkpoint.TruncateLogs": "ROADMAP item 17 wires log truncation into the checkpoint daemon or deletes it",
	"torture.RunCluster":      "a cluster-shape torture violation prints this call as the command that reruns it",
}

// TestNoUnusedInternalExports is the unused-export gate. It parses every
// non-test Go file of the module and of the nested bench/ module and fails
// on any exported func, type, var, const or method declared in internal/
// that only tests use. A package-level name counts as used when another
// package selects it through its import, or when its own package names it
// bare outside its own declaration; a method counts as used when any
// selector anywhere names it.
func TestNoUnusedInternalExports(t *testing.T) {
	unused := unusedInternalExports(t, ".")
	for _, name := range unused {
		if _, ok := unusedExportAllowList[name]; !ok {
			t.Errorf("%s is exported from internal/ but only tests use it: delete it, or unexport it if its package still needs it", name)
		}
	}
	found := make(map[string]bool, len(unused))
	for _, name := range unused {
		found[name] = true
	}
	for name, reason := range unusedExportAllowList {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allow-list entry %s has no reason", name)
		}
		if !found[name] {
			t.Errorf("allow-list entry %s is stale: it is not an unused export any more", name)
		}
	}
}

// unusedInternalExports returns the exported declarations under
// root/internal that no non-test file references, named
// "pkg.Name" or "pkg.Type.Method" with pkg relative to internal/.
func unusedInternalExports(t *testing.T, root string) []string {
	t.Helper()
	const module = "pacman"
	fset := token.NewFileSet()
	decls := map[string]string{} // decl key -> method name ("" for package-level names)
	refs := refIndex{}           // package-level key -> referencing decls
	methodRefs := refIndex{}     // method name -> referencing decls

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		pkg := module
		if rel != "." {
			pkg = module + "/" + filepath.ToSlash(rel)
		}
		internal := strings.HasPrefix(pkg, module+"/internal/")
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		// walk records the references in n made from inside the top-level
		// declaration from: package-qualified selectors, bare identifiers
		// of this package, and selected method names.
		var walk func(n ast.Node, from string)
		walk = func(n ast.Node, from string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[id.Name]; ok {
							refs.add(p+"."+n.Sel.Name, from)
							return false
						}
					}
					methodRefs.add(n.Sel.Name, from)
					walk(n.X, from)
					return false
				case *ast.Ident:
					refs.add(pkg+"."+n.Name, from)
				}
				return true
			})
		}
		declare := func(key, method string, exported bool) {
			if internal && exported {
				decls[key] = method
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				key, method := pkg+"."+decl.Name.Name, ""
				if decl.Recv != nil {
					key = pkg + "." + receiverType(decl.Recv.List[0].Type) + "." + decl.Name.Name
					method = decl.Name.Name
				}
				declare(key, method, decl.Name.IsExported())
				// The receiver names the method's own type; it is no use of it.
				walk(decl.Type, key)
				if decl.Body != nil {
					walk(decl.Body, key)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						key := pkg + "." + spec.Name.Name
						declare(key, "", spec.Name.IsExported())
						walk(spec.Type, key)
					case *ast.ValueSpec:
						// One spec may declare several names; each is its own decl.
						for _, n := range spec.Names {
							key := pkg + "." + n.Name
							declare(key, "", n.IsExported())
							if spec.Type != nil {
								walk(spec.Type, key)
							}
							for _, v := range spec.Values {
								walk(v, key)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for key, method := range decls {
		used := refs.usedOutside(key, key)
		if method != "" {
			used = methodRefs.usedOutside(method, key)
		}
		if !used {
			unused = append(unused, strings.TrimPrefix(key, module+"/internal/"))
		}
	}
	sort.Strings(unused)
	return unused
}

// refIndex maps a referenced name to the top-level declarations that
// reference it, so that a declaration naming itself does not count.
type refIndex map[string]map[string]bool

func (r refIndex) add(target, from string) {
	if r[target] == nil {
		r[target] = map[string]bool{}
	}
	r[target][from] = true
}

// usedOutside reports whether a declaration other than self references
// target.
func (r refIndex) usedOutside(target, self string) bool {
	for from := range r[target] {
		if from != self {
			return true
		}
	}
	return false
}

// receiverType returns the type name of a method receiver expression.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
