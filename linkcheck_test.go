//go:build linkcheck

// Link check: every non-test function outside cmd/bench is linked into one
// of the repository's binaries, or testdata/unlinked.txt names its owner.
//
//	go test -tags linkcheck -run TestLinkCheck -count=1 .
//
// (make linkcheck). The binaries are built with inlining off, so a function
// that runs anywhere in a binary keeps its own symbol; `go tool nm` then
// lists what the linker kept. A declared function that no binary keeps must
// appear in the allowlist with an owner of one of three kinds:
//
//	test TestName   a reference the named test compares against
//	api  Name       exported API of the root pilfill package (or what it calls)
//	string          a String method
//
// The test fails on an unlisted unlinked function, a stale entry (the
// function is linked now, or gone) and an entry without a valid owner.
package pilfill

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// linkBinaries are the repository's programs: the commands, the examples and
// the benchmark driver (its own module, built from its directory; every
// build is -mod=readonly, the main module's default anyway).
var linkBinaries = []string{
	"cmd/benchtables", "cmd/layoutgen", "cmd/pilfill", "cmd/pilfill-coord",
	"cmd/pilfilld", "cmd/tracecheck",
	"examples/budgetedflow", "examples/densitymap", "examples/quickstart",
	"examples/timingaware",
	"cmd/bench",
}

const allowlistPath = "testdata/unlinked.txt"

// declaredFunc is one non-test function or method with a body.
type declaredFunc struct {
	// key is the import path + "." + [Recv "."] + Name, as nm names it once
	// normalized; a main-package function is "dir:main.Name", since every
	// binary calls its package main.
	key   string
	file  string
	lines int
}

func TestLinkCheck(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()

	linked := map[string]bool{} // normalized text symbols of every binary
	for _, dir := range linkBinaries {
		out := filepath.Join(bin, strings.ReplaceAll(dir, "/", "_"))
		build := exec.Command("go", "build", "-mod=readonly", "-gcflags=all=-l", "-o", out, ".")
		build.Dir = filepath.Join(root, dir)
		if msg, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", dir, err, msg)
		}
		nm, err := exec.Command("go", "tool", "nm", out).Output()
		if err != nil {
			t.Fatalf("nm %s: %v", dir, err)
		}
		for _, line := range strings.Split(string(nm), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[len(f)-2] != "T" && f[len(f)-2] != "t") {
				continue
			}
			sym := normalizeSymbol(f[len(f)-1])
			if strings.HasPrefix(sym, "main.") {
				sym = dir + ":" + sym
			}
			linked[sym] = true
		}
	}

	decls, err := declaredFuncs(root)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	unlinked := map[string]declaredFunc{}
	for _, d := range decls {
		declared[d.key] = true
		if !linked[d.key] {
			unlinked[d.key] = d
		}
	}

	allow, err := readAllowlist(filepath.Join(root, allowlistPath))
	if err != nil {
		t.Fatal(err)
	}
	tests, apis, err := ownerNames(root)
	if err != nil {
		t.Fatal(err)
	}

	var unlisted []string
	total := 0
	for k, d := range unlinked {
		total += d.lines
		if _, ok := allow[k]; !ok {
			unlisted = append(unlisted, k+"  ("+d.file+", "+strconv.Itoa(d.lines)+" lines)")
		}
	}
	sort.Strings(unlisted)
	for _, u := range unlisted {
		t.Errorf("unlinked and not in %s: %s", allowlistPath, u)
	}
	keys := make([]string, 0, len(allow))
	for k := range allow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := allow[k]
		switch {
		case !declared[k]:
			t.Errorf("%s:%d: stale entry %s: no such function", allowlistPath, e.line, k)
		case unlinked[k].key == "":
			t.Errorf("%s:%d: stale entry %s: linked into a binary", allowlistPath, e.line, k)
		}
		if msg := checkOwner(k, e.owner, tests, apis); msg != "" {
			t.Errorf("%s:%d: %s: %s", allowlistPath, e.line, k, msg)
		}
	}
	t.Logf("%d unlinked functions (%d lines), %d allowlisted", len(unlinked), total, len(allow))
}

var (
	closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)\d+)(\.\d+)*$`)
	initSuffix    = regexp.MustCompile(`\.init\.\d+$`)
)

// normalizeSymbol maps an nm symbol onto the declared-function key: pointer
// receivers "(*T).M" become "T.M", generic instantiations "[...]" are
// dropped, closures count as their enclosing function and numbered init
// functions as "init".
func normalizeSymbol(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0:
		default:
			b.WriteRune(r)
		}
	}
	s = b.String()
	s = strings.ReplaceAll(s, "(*", "")
	s = strings.ReplaceAll(s, ").", ".")
	for {
		n := closureSuffix.ReplaceAllString(s, "")
		if n == s {
			break
		}
		s = n
	}
	return initSuffix.ReplaceAllString(s, ".init")
}

// declaredFuncs lists every function with a body in the module's non-test
// Go files, cmd/bench excluded.
func declaredFuncs(root string) ([]declaredFunc, error) {
	var out []declaredFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if e.IsDir() {
			if rel == "cmd/bench" || strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		pkg := "pilfill"
		switch {
		case f.Name.Name == "main":
			pkg = dir + ":main"
		case dir != ".":
			pkg = "pilfill/" + dir
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "_" {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			out = append(out, declaredFunc{
				key:   pkg + "." + name,
				file:  rel,
				lines: fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1,
			})
		}
		return nil
	})
	return out, err
}

// recvName is the receiver's type name without pointer or type parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

type allowEntry struct {
	owner []string
	line  int
}

// readAllowlist reads "function owner..." lines; '#' starts a comment. A
// main-package function is written "cmd/dir:main.name".
func readAllowlist(path string) (map[string]allowEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]allowEntry{}
	for i, line := range strings.Split(string(data), "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		out[f[0]] = allowEntry{owner: f[1:], line: i + 1}
	}
	return out, nil
}

// ownerNames collects the test functions of every _test.go file and the
// exported functions and methods of the root package.
func ownerNames(root string) (tests, apis map[string]bool, err error) {
	tests, apis = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		isTest := strings.HasSuffix(path, "_test.go")
		isRoot := filepath.Dir(path) == root && strings.HasSuffix(path, ".go") && !isTest
		if !isTest && !isRoot {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch {
			case isTest && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test"):
				tests[fd.Name.Name] = true
			case isRoot && fd.Name.IsExported() && fd.Recv == nil:
				apis[fd.Name.Name] = true
			case isRoot && fd.Name.IsExported():
				apis[recvName(fd.Recv.List[0].Type)+"."+fd.Name.Name] = true
			}
		}
		return nil
	})
	return tests, apis, err
}

// checkOwner returns why an allowlist owner is not acceptable, or "".
func checkOwner(key string, owner []string, tests, apis map[string]bool) string {
	if len(owner) == 0 {
		return "no owner"
	}
	switch owner[0] {
	case "test":
		if len(owner) != 2 || !tests[owner[1]] {
			return "owner \"test\" must name an existing Test function"
		}
	case "api":
		if len(owner) != 2 || !apis[owner[1]] {
			return "owner \"api\" must name exported API of the root pilfill package"
		}
	case "string":
		if len(owner) != 1 || !strings.HasSuffix(key, ".String") {
			return "owner \"string\" is only for String methods"
		}
	default:
		return "owner must be \"test TestName\", \"api Name\" or \"string\""
	}
	return ""
}
