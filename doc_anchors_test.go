package blackswan_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// anchoredDocs are the documents whose code anchors must resolve.
var anchoredDocs = []string{"DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	// fileAnchor is path.go, optionally :N or :N–M.
	fileAnchor = regexp.MustCompile(`^([\w./-]+\.go)(?::(\d+)(?:[–-](\d+))?)?$`)
	// symbolAnchor is pkg.Symbol or pkg.Type.Member, followed by nothing
	// or by what is not part of a name (a call's arguments, a literal's
	// braces, a type's parameters).
	symbolAnchor = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:$|[^\w.])`)
)

// goTree is what the anchors resolve against: every Go file's line count by
// slash path, and every non-main package's declared names — top-level
// names, and Type.Member for methods, struct fields and interface methods.
type goTree struct {
	lines map[string]int
	syms  map[string]map[string]bool
	// embeds lists, per package and type, the types it embeds as
	// "pkg.Type", so a promoted member resolves through them.
	embeds map[string]map[string][]string
}

func loadGoTree(t *testing.T) *goTree {
	t.Helper()
	tr := &goTree{lines: map[string]int{}, syms: map[string]map[string]bool{}, embeds: map[string]map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		tr.lines[filepath.ToSlash(path)] = strings.Count(string(src), "\n")
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if pkg := strings.TrimSuffix(f.Name.Name, "_test"); pkg != "main" {
			tr.declare(pkg, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func (tr *goTree) declare(pkg string, f *ast.File) {
	if tr.syms[pkg] == nil {
		tr.syms[pkg], tr.embeds[pkg] = map[string]bool{}, map[string][]string{}
	}
	syms := tr.syms[pkg]
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				syms[d.Name.Name] = true
			} else {
				syms[typeName(pkg, d.Recv.List[0].Type)[len(pkg)+1:]+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						syms[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := sp.Name.Name
					syms[typ] = true
					fields := &ast.FieldList{}
					switch x := sp.Type.(type) {
					case *ast.StructType:
						fields = x.Fields
					case *ast.InterfaceType:
						fields = x.Methods
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							syms[typ+"."+n.Name] = true
						}
						if len(fl.Names) == 0 {
							emb := typeName(pkg, fl.Type)
							syms[typ+"."+emb[strings.LastIndex(emb, ".")+1:]] = true
							tr.embeds[pkg][typ] = append(tr.embeds[pkg][typ], emb)
						}
					}
				}
			}
		}
	}
}

// typeName renders a receiver or embedded type as "pkg.Type", dropping
// pointers and type parameters.
func typeName(pkg string, e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.X.(*ast.Ident).Name + "." + x.Sel.Name
		case *ast.Ident:
			return pkg + "." + x.Name
		default:
			return pkg + ".?"
		}
	}
}

// member reports whether pkg's type typ has member m, its own or promoted
// from an embedded type.
func (tr *goTree) member(pkg, typ, m string) bool {
	if tr.syms[pkg][typ+"."+m] {
		return true
	}
	for _, emb := range tr.embeds[pkg][typ] {
		p, ty, _ := strings.Cut(emb, ".")
		if tr.member(p, ty, m) {
			return true
		}
	}
	return false
}

// resolve reports whether a code span is an anchor at all, and whether it
// resolves. A span naming no Go file and no known package is prose, and so
// is an all-lowercase name after a package: in these documents that is a
// metric (`core.peak_bytes_per_op`), a span (`bgp.parse`) or a file
// (`bench.test`), while every symbol they name is exported or mixedCase.
func (tr *goTree) resolve(span string) (anchor, ok bool) {
	if m := fileAnchor.FindStringSubmatch(span); m != nil {
		last := 0
		for _, n := range m[2:] {
			if n != "" {
				last, _ = strconv.Atoi(n)
			}
		}
		for path, lines := range tr.lines {
			if (path == m[1] || strings.HasSuffix(path, "/"+m[1])) && last <= lines {
				return true, true
			}
		}
		return true, false
	}
	m := symbolAnchor.FindStringSubmatch(span)
	if m == nil || tr.syms[m[1]] == nil || strings.ToLower(m[2]) == m[2] {
		return false, false
	}
	if m[3] == "" {
		return true, tr.syms[m[1]][m[2]]
	}
	return true, tr.member(m[1], m[2], m[3])
}

// TestDocAnchors holds the design documents to the code: every backticked
// pkg.Symbol, pkg.Type.Member and path.go[:N] in them must name a declared
// symbol, member or file (and a line inside it), so a rename or a deletion
// that leaves a document pointing at nothing fails here.
func TestDocAnchors(t *testing.T) {
	tr := loadGoTree(t)
	for _, bad := range []string{"core.NoSuchSymbol", "core.Plan.NoSuchMember", "exec.go:999999", "nosuch.go"} {
		if anchor, ok := tr.resolve(bad); !anchor || ok {
			t.Fatalf("%s: anchor %v, resolved %v — the resolver accepts what is not there", bad, anchor, ok)
		}
	}
	for _, doc := range anchoredDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllStringFunc(string(src), func(b string) string {
			return strings.Repeat("\n", strings.Count(b, "\n"))
		})
		anchors := 0
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			span := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
			anchor, ok := tr.resolve(span)
			if anchor {
				anchors++
			}
			if anchor && !ok {
				t.Errorf("%s:%d: `%s` names nothing in the tree", doc, strings.Count(text[:m[0]], "\n")+1, span)
			}
		}
		if anchors < 10 {
			t.Errorf("%s: only %d anchors found — the scan is not reading the document", doc, anchors)
		}
	}
}
