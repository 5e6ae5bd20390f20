// Command reach is the reachability ledger: it lists every non-test
// function in internal/ that no binary links, and checks that list
// against a committed allowlist in which each entry names its owner.
//
// The roots are the binaries under cmd/ and examples/ plus perfbench
// (built from its own module directory), linked with inlining off and
// -ldflags=-dumpdep so every reached function shows up as a linker
// symbol. A function is reached if some root links it.
//
// Run it from the repository root (make reach):
//
//	go run ./internal/tools/reach
//
// Each allowlist line is "<package> <function> <owner>", where package is
// the directory under internal/, function is written as in the report
// (F, T.M or (*T).M) and owner is "test harness" or the name of a Test,
// Fuzz or Example function, or of a Benchmark that EXPERIMENTS.md cites.
// The check fails on an unreached function that is not listed, on a
// listed function that is now reached or gone, and on an owner that
// does not exist.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// module is the import path of the repository's root module.
const module = "ormprof"

// testFunc matches the names `go test` runs.
var testFunc = regexp.MustCompile(`^(Test|Fuzz|Example|Benchmark)`)

// fn is one non-test function declaration under internal/.
type fn struct {
	pkg   string // directory under internal/, e.g. "layout"
	name  string // F, T.M or (*T).M
	pos   string // file:line
	lines int    // lines of the body, braces included
}

func (f fn) id() string { return f.pkg + " " + f.name }

// allowPath is the allowlist, relative to the repository root.
const allowPath = "reach.allow"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run() error {
	fns, owners, err := scan(".")
	if err != nil {
		return err
	}
	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return err
	}
	linked, err := linkedSymbols(module+"/internal/", roots)
	if err != nil {
		return err
	}
	allow, err := readAllow(allowPath)
	if err != nil {
		return err
	}

	var problems []string
	unreached, bodyLines := 0, 0
	present := map[string]bool{}
	for _, f := range fns {
		present[f.id()] = true
		if linked[f.id()] {
			if _, ok := allow[f.id()]; ok {
				problems = append(problems, fmt.Sprintf("%s: %s is reached; drop it from %s", f.pos, f.id(), allowPath))
			}
			continue
		}
		unreached++
		bodyLines += f.lines
		if _, ok := allow[f.id()]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s (%d lines) is linked by no binary and has no owner in %s", f.pos, f.id(), f.lines, allowPath))
		}
	}
	for _, id := range sortedKeys(allow) {
		if !present[id] {
			problems = append(problems, fmt.Sprintf("%s: %s no longer exists", allowPath, id))
		}
		if msg := checkOwner(allow[id], owners, experiments); msg != "" {
			problems = append(problems, fmt.Sprintf("%s: %s: %s", allowPath, id, msg))
		}
	}

	fmt.Printf("reach: %d of %d internal functions unreached (%d body lines), %d allowlisted\n",
		unreached, len(fns), bodyLines, len(allow))
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s)", len(problems))
	}
	return nil
}

// checkOwner returns why owner is not a valid owner, or "" if it is.
func checkOwner(owner string, tests map[string]bool, experiments []byte) string {
	switch {
	case owner == "test harness":
		return ""
	case strings.ContainsAny(owner, " \t"):
		return fmt.Sprintf("owner %q is neither \"test harness\" nor one test name", owner)
	case !tests[owner]:
		return fmt.Sprintf("owner %s is not a test function in any _test.go file", owner)
	case strings.HasPrefix(owner, "Benchmark") && !bytes.Contains(experiments, []byte(owner)):
		return fmt.Sprintf("owner %s has no EXPERIMENTS.md row", owner)
	}
	return ""
}

// scan parses the module's Go files under root once. It returns the
// function declarations of the non-test, non-main files under
// root/internal and the Test, Fuzz, Example and Benchmark functions of
// every _test.go file. testdata, hidden directories and the separate
// perfbench module are skipped.
func scan(root string) (fns []fn, tests map[string]bool, err error) {
	tests = map[string]bool{}
	internal := filepath.Join(root, "internal")
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || d.Name() == "perfbench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel(internal, filepath.Dir(path))
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if !isTest && (file.Name.Name == "main" || strings.HasPrefix(pkg, "..")) {
			return nil
		}
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			switch {
			case !ok || d.Body == nil:
			case isTest:
				if d.Recv == nil && testFunc.MatchString(d.Name.Name) {
					tests[d.Name.Name] = true
				}
			default:
				fns = append(fns, fn{
					pkg:   filepath.ToSlash(pkg),
					name:  funcName(d),
					pos:   fmt.Sprintf("%s:%d", path, fset.Position(d.Pos()).Line),
					lines: fset.Position(d.Body.Rbrace).Line - fset.Position(d.Body.Lbrace).Line + 1,
				})
			}
		}
		return nil
	})
	return fns, tests, err
}

// funcName writes a declaration the way the linker names it, without the
// package path and without type arguments: F, T.M or (*T).M.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	typ := d.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + d.Name.Name
	}
	return recv + "." + d.Name.Name
}

// symbolName reduces one linker symbol to the declaration it names,
// relative to prefix: "pkg F", "pkg T.M" or "pkg (*T).M", with type
// arguments and the method-value suffix removed. It returns "" for
// symbols outside prefix. Compiler-generated data symbols (F.arginfo1,
// F.stkobj, ...) keep their suffix and so never match a declaration:
// they are content-addressed and shared between functions, so their
// presence proves nothing. A closure F.func1 needs no rule either: only
// F can reference it, so F is linked whenever it is. The numbered init
// funcs of a package (init.0, init.1, ...) all map to "init".
func symbolName(sym, prefix string) string {
	if !strings.HasPrefix(sym, prefix) {
		return ""
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym[len(prefix):] {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	pkg, name, ok := strings.Cut(strings.TrimSuffix(b.String(), "-fm"), ".")
	if !ok {
		return ""
	}
	if n, ok := strings.CutPrefix(name, "init."); ok && strings.Trim(n, "0123456789") == "" {
		name = "init" // the linker numbers a package's init funcs
	}
	return pkg + " " + name
}

// build is one `go build` invocation: packages built from a directory.
type build struct {
	dir  string
	pkgs []string
}

// roots are the binaries whose links define "reached".
var roots = []build{
	{dir: ".", pkgs: []string{"./cmd/...", "./examples/..."}},
	{dir: "perfbench", pkgs: []string{"."}},
}

// linkedSymbols links every build with inlining off and collects the
// names under prefix that the linker's dependency dump mentions.
func linkedSymbols(prefix string, builds []build) (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	linked := map[string]bool{}
	for i, b := range builds {
		out := filepath.Join(tmp, fmt.Sprint(i)) + string(filepath.Separator)
		args := append([]string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", out}, b.pkgs...)
		var stderr bytes.Buffer
		cmd := exec.Command("go", args...)
		cmd.Dir = b.dir
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), b.dir, err, stderr.String())
		}
		sc := bufio.NewScanner(&stderr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			for _, side := range strings.Split(sc.Text(), " -> ") {
				if name := symbolName(side, prefix); name != "" {
					linked[name] = true
				}
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

// readAllow parses the allowlist into function id → owner.
func readAllow(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("%s:%d: want \"<package> <function> <owner>\"", path, i+1)
		}
		id := f[0] + " " + f[1]
		if _, dup := allow[id]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, id)
		}
		allow[id] = strings.Join(f[2:], " ")
	}
	return allow, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
