package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// declSrc declares one function of each shape the linker names
// differently: plain, value and pointer receivers, a generic function,
// and value and pointer methods on a generic type.
const declSrc = `package x

type T struct{}
type G[E any] struct{ e E }
type P[K comparable, V any] struct{}

func Used()              {}
func Unused()            {}
func (T) Val()           {}
func (*T) Ptr()          {}
func (T) ValUnused()     {}
func Gen[E any](e E) E   { return e }
func (g *G[E]) Get() E   { return g.e }
func (g G[E]) Peek() E   { return g.e }
func (p *P[K, V]) Len() int { return 0 }
func init()              { Used() }
`

func TestFuncName(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", declSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			got = append(got, funcName(fd))
		}
	}
	want := []string{"Used", "Unused", "T.Val", "(*T).Ptr", "T.ValUnused", "Gen", "(*G).Get", "G.Peek", "(*P).Len", "init"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("funcName = %v, want %v", got, want)
	}
}

func TestSymbolName(t *testing.T) {
	const prefix = "m/internal/"
	for sym, want := range map[string]string{
		"m/internal/x.Used":                                     "x Used",
		"m/internal/x.T.Val":                                    "x T.Val",
		"m/internal/x.(*T).Ptr":                                 "x (*T).Ptr",
		"m/internal/x.Gen[go.shape.int]":                        "x Gen",
		"m/internal/x.(*G[go.shape.int]).Get":                   "x (*G).Get",
		"m/internal/x.G[go.shape.string].Peek":                  "x G.Peek",
		"m/internal/x.(*P[go.shape.string,go.shape.[]int]).Len": "x (*P).Len",
		"m/internal/x.(*T).Ptr-fm":                              "x (*T).Ptr",
		"m/internal/a/b.F":                                      "a/b F",
		"m/internal/x.init.0":                                   "x init",
		"m/internal/x.init.func1":                               "x init.func1",
		// Closures and data symbols name no declaration.
		"m/internal/x.Used.func1":     "x Used.func1",
		"m/internal/x.Used.arginfo1":  "x Used.arginfo1",
		"m/internal/x..dict.Gen[int]": "x .dict.Gen",
		"type:m/internal/x.T":         "",
		"runtime.main":                "",
	} {
		if got := symbolName(sym, prefix); got != want {
			t.Errorf("symbolName(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestLinkedSymbolsAgainstLinker links a real program and checks that the
// declarations it calls, and only those, come out reached.
func TestLinkedSymbolsAgainstLinker(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go toolchain")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n\ngo 1.22\n")
	write("internal/x/x.go", declSrc)
	write("cmd/m/main.go", `package main

import "m/internal/x"

func main() {
	x.Used()
	var t x.T
	t.Val()
	t.Ptr()
	x.Gen(1)
	g := &x.G[int]{}
	g.Get()
	x.G[string]{}.Peek()
	(&x.P[string, []int]{}).Len()
}
`)
	fns, _, err := scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	linked, err := linkedSymbols("m/internal/", []build{{dir: dir, pkgs: []string{"./cmd/..."}}})
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for _, f := range fns {
		if !linked[f.id()] {
			unreached = append(unreached, f.name)
		}
	}
	sort.Strings(unreached)
	if got, want := strings.Join(unreached, " "), "T.ValUnused Unused"; got != want {
		t.Errorf("unreached = %q, want %q", got, want)
	}
}
