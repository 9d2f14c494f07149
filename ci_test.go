package repro_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRaceSkippedGatesRunInCI holds every test that does not run under the
// race detector — one that skips when raceEnabled is set, or one in a file
// built only without -race — to a non-race `go test` line of the CI
// workflow whose packages and -run pattern select it. The workflow's main
// suite runs with -race, so without such a line the gate runs nowhere.
func TestRaceSkippedGatesRunInCI(t *testing.T) {
	workflow, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := ciTestLines(t, string(workflow))
	gates := raceSkippedTests(t)
	if len(gates) == 0 {
		t.Fatal("found no test that skips under -race; the scan is broken")
	}
	for _, g := range gates {
		if !slices.ContainsFunc(steps, func(s ciTestLine) bool { return s.selects(g.pkg, g.name) }) {
			t.Errorf("%s (%s) skips under -race, and no non-race `go test -run` line of ci.yml selects it", g.name, g.pkg)
		}
	}
	t.Logf("%d race-skipped tests, each run by a non-race CI line", len(gates))
}

// ciTestLine is one non-race `go test` command of the workflow.
type ciTestLine struct {
	pkgs []string       // "./internal/durable", or "./..."
	run  *regexp.Regexp // the top level of its -run pattern
}

// selects reports whether the line runs test name of package pkg.
func (l ciTestLine) selects(pkg, name string) bool {
	if l.run == nil {
		return false
	}
	for _, p := range l.pkgs {
		if p == pkg || p == "./..." || strings.HasSuffix(p, "/...") && strings.HasPrefix(pkg+"/", strings.TrimSuffix(p, "...")) {
			return l.run.MatchString(name)
		}
	}
	return false
}

// ciTestLines extracts every `go test` command without -race from the
// workflow text: its package arguments and its -run pattern.
func ciTestLines(t *testing.T, workflow string) []ciTestLine {
	t.Helper()
	var lines []ciTestLine
	for _, line := range strings.Split(workflow, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") || strings.Contains(cmd, "-race") {
			continue
		}
		var l ciTestLine
		args := shellWords(cmd)
		for i := 0; i < len(args); i++ {
			pattern, isRun := strings.CutPrefix(args[i], "-run=")
			if args[i] == "-run" && i+1 < len(args) {
				pattern, isRun = args[i+1], true
				i++
			}
			switch {
			case isRun:
				top, _, _ := strings.Cut(pattern, "/")
				re, err := regexp.Compile(top)
				if err != nil {
					t.Fatalf("ci.yml: -run %q: %v", pattern, err)
				}
				l.run = re
			case args[i] == "." || strings.HasPrefix(args[i], "./"):
				l.pkgs = append(l.pkgs, strings.TrimSuffix(args[i], "/"))
			}
		}
		lines = append(lines, l)
	}
	return lines
}

// shellWords splits a command line at blanks, keeping single- or
// double-quoted words whole, without their quotes.
func shellWords(s string) []string {
	var words []string
	var word strings.Builder
	var quote rune
	inWord := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, word.String())
				word.Reset()
			}
			inWord = false
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}

// raceGate is a test that does not run under the race detector.
type raceGate struct{ pkg, name string }

// raceSkippedTests walks the module's test files (the bench module, a
// module of its own, aside) for tests that skip when raceEnabled is set
// and for the tests of files built only without -race.
func raceSkippedTests(t *testing.T) []raceGate {
	t.Helper()
	var gates []raceGate
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir, name := filepath.Split(path)
		plain, err := build.Default.MatchFile(dir, name)
		if err != nil || !plain {
			return err
		}
		withRace := build.Default
		withRace.BuildTags = append(slices.Clone(withRace.BuildTags), "race")
		race, err := withRace.MatchFile(dir, name)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := "."
		if dir != "" {
			pkg = "./" + filepath.ToSlash(filepath.Clean(dir))
		}
		raceOff := !race
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Body == nil || !strings.HasPrefix(fn.Name.Name, "Test") {
				continue
			}
			skips := raceOff
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if s, ok := n.(*ast.IfStmt); ok {
					if id, ok := s.Cond.(*ast.Ident); ok && id.Name == "raceEnabled" {
						skips = true
					}
				}
				return !skips
			})
			if skips {
				gates = append(gates, raceGate{pkg, fn.Name.Name})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return gates
}
