package lint

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current report output")

// TestFactsEngine pins the cross-package fact engine on the facts fixture:
// direct I/O, one- and two-level transitive I/O (including through a method),
// purity, and the deliberate under-approximation for function values.
func TestFactsEngine(t *testing.T) {
	pkg := loadFixture(t, "facts")
	fc := ComputeFacts([]*Package{pkg})

	fnByName := func(name string) *types.Func {
		t.Helper()
		obj := pkg.Types.Scope().Lookup(name)
		fn, ok := obj.(*types.Func)
		if !ok {
			t.Fatalf("fixture func %s not found (got %v)", name, obj)
		}
		return fn
	}
	probe := pkg.Types.Scope().Lookup("Probe").(*types.TypeName)
	var flush *types.Func
	named := probe.Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "Flush" {
			flush = named.Method(i)
		}
	}
	if flush == nil {
		t.Fatal("Probe.Flush not found")
	}

	for _, tc := range []struct {
		fn   *types.Func
		want bool
	}{
		{fnByName("WriteState"), true},
		{fnByName("Chain"), true},
		{flush, true},
		{fnByName("Pure"), false},
		{fnByName("viaValue"), false},
		// //hermes:io declares an edge the analysis cannot see, and the
		// declared fact propagates to callers like any other.
		{fnByName("Emit"), true},
		{fnByName("Record"), true},
	} {
		if got := fc.PerformsIO(tc.fn); got != tc.want {
			t.Errorf("PerformsIO(%s) = %v, want %v", tc.fn.Name(), got, tc.want)
		}
	}

	want := []string{
		pkg.Path + ".Chain",
		pkg.Path + ".Emit",
		pkg.Path + ".Probe.Flush",
		pkg.Path + ".Record",
		pkg.Path + ".WriteState",
	}
	if got := fc.IOFuncs(); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("IOFuncs() = %v, want %v", got, want)
	}

	// A nil Facts still answers from the stdlib seed model.
	var nilFacts *Facts
	if nilFacts.PerformsIO(fnByName("Chain")) {
		t.Error("nil Facts claimed module-propagated fact")
	}
}

// TestIncludeTests pins the -include-tests contract end to end: the loader
// parses in-package _test.go files only when asked, and findings in them
// surface only for analyzers that opt in via TestFiles.
func TestIncludeTests(t *testing.T) {
	dir := filepath.Join("testdata", "src", "inctests")

	load := func(withTests bool) *Package {
		t.Helper()
		l, err := NewLoader(".")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		l.IncludeTests = withTests
		pkgs, err := l.Load(dir)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if len(pkgs) != 1 {
			t.Fatalf("got %d packages, want 1", len(pkgs))
		}
		for _, terr := range pkgs[0].TypeErrors {
			t.Errorf("type error: %v", terr)
		}
		return pkgs[0]
	}

	// Without test files: no findings anywhere (the leak lives in _test.go).
	plain := load(false)
	if got := RunPackage(plain, []*Analyzer{PoolEscape, GlobalRand}); len(got) != 0 {
		t.Errorf("without tests: unexpected findings %v", got)
	}

	// With test files: poolescape (TestFiles: true) fires on the leaked
	// pool value; globalrand (TestFiles: false) still skips test files.
	withTests := load(true)
	got := RunPackageOpts(withTests, []*Analyzer{PoolEscape, GlobalRand}, RunOptions{IncludeTests: true})
	if len(got) != 1 || got[0].Check != "poolescape" {
		t.Fatalf("with tests: got %v, want exactly one poolescape finding", got)
	}
	if !strings.HasSuffix(got[0].Pos.Filename, "code_test.go") {
		t.Errorf("finding in %s, want code_test.go", got[0].Pos.Filename)
	}
}

// TestReportGolden pins the -json report byte-for-byte: deterministic
// finding order, module-relative slash paths, and the exact field layout
// external tooling parses. Regenerate with: go test ./internal/lint/ -run
// TestReportGolden -update-golden
func TestReportGolden(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(filepath.Join("testdata", "src", "directives"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	findings := RunPackages(pkgs, []*Analyzer{GlobalRand}, RunOptions{})
	report := NewReport(l.ModulePath, l.ModuleRoot, pkgs, []*Analyzer{GlobalRand}, findings)
	data, err := report.MarshalIndent()
	if err != nil {
		t.Fatalf("MarshalIndent: %v", err)
	}
	goldenPath := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if string(data) != string(golden) {
		t.Errorf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s", data, golden)
	}
}

// loadFactdump loads the factdump fixture through a fresh loader and
// returns the loader with both fixture packages (a and its dependency b)
// in its cache.
func loadFactdump(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(filepath.Join("testdata", "src", "factdump", "a"))
	if err != nil {
		t.Fatalf("Load factdump/a: %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("factdump type error: %v", terr)
		}
	}
	if got := len(l.Cached()); got != 2 {
		t.Fatalf("Cached() has %d packages, want 2 (a and its dependency b)", got)
	}
	return l
}

// TestFactsDumpGolden pins the -facts -json dump byte-for-byte over the
// factdump fixture: all six lattices populate (io crosses the a -> b
// package boundary; alloc, blocks, and acquires are per-function; netio
// seeds at a.Ping's net.Dial and propagates synchronously to a.Relay,
// which also consumes its context and so lands in cancel; the S.mu -> mu
// lock edge carries its witness), and the function-value
// under-approximation is visible as data — a.hello is in the io list,
// a.Indirect is not. Regenerate with -update-golden.
func TestFactsDumpGolden(t *testing.T) {
	l := loadFactdump(t)
	fc := ComputeFacts(l.Cached())
	data, err := fc.Dump(l.ModuleRoot).MarshalIndent()
	if err != nil {
		t.Fatalf("MarshalIndent: %v", err)
	}
	goldenPath := filepath.Join("testdata", "factdump.golden.json")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if string(data) != string(golden) {
		t.Errorf("facts dump drifted from golden:\n--- got ---\n%s--- want ---\n%s", data, golden)
	}
}

// TestFactsDumpDeterministic runs the whole load -> fixpoint -> dump
// pipeline twice from scratch: the JSON must come out byte-identical, or
// the -diff gate and the archived facts artifact churn on every CI run.
func TestFactsDumpDeterministic(t *testing.T) {
	dump := func() string {
		l := loadFactdump(t)
		data, err := ComputeFacts(l.Cached()).Dump(l.ModuleRoot).MarshalIndent()
		if err != nil {
			t.Fatalf("MarshalIndent: %v", err)
		}
		return string(data)
	}
	first, second := dump(), dump()
	if first != second {
		t.Errorf("facts dump is not deterministic:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestLoaderHardErrors pins the exit-2 contract's loader half: a
// dependency package that fails to parse surfaces through HardErrors even
// though Load itself succeeds best-effort (go/types files the failure as a
// type error of the importer and moves on).
func TestLoaderHardErrors(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(filepath.Join("testdata", "src", "brokenimport"))
	if err != nil {
		t.Fatalf("Load brokenimport: %v (want best-effort success)", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	hard := l.HardErrors()
	if len(hard) != 1 {
		t.Fatalf("HardErrors() = %v, want exactly one (the dep parse failure)", hard)
	}
	if !strings.Contains(hard[0].Error(), "dep.go") {
		t.Errorf("hard error %v does not name dep.go", hard[0])
	}
	// The broken dependency also shows up as a type error of the importer;
	// both channels exist, but only HardErrors drives the exit code.
	if len(pkgs[0].TypeErrors) == 0 {
		t.Error("importer package has no type errors; expected the failed import to surface there too")
	}
}

// TestBaselineRoundTrip pins baseline semantics: (check, file, msg) matching
// that survives line drift, multiset budgets, and stale-entry reporting,
// through a write/load round trip.
func TestBaselineRoundTrip(t *testing.T) {
	root := t.TempDir()
	mk := func(file string, line int, check, msg string) Finding {
		return Finding{
			Check: check,
			Pos:   token.Position{Filename: filepath.Join(root, file), Line: line, Column: 1},
			Msg:   msg,
		}
	}
	recorded := []Finding{
		mk("a.go", 10, "poolescape", "leak one"),
		mk("a.go", 20, "poolescape", "leak two"),
		mk("b.go", 5, "errdrop", "dropped"),
	}
	path := filepath.Join(root, "baseline.json")
	if err := WriteBaseline(path, root, recorded); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	base, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}

	// Current run: "leak one" moved lines (still absorbed), "leak two" was
	// fixed (stale entry), "dropped" recurs twice (budget absorbs one), and
	// a brand-new finding is kept.
	current := []Finding{
		mk("a.go", 99, "poolescape", "leak one"),
		mk("b.go", 5, "errdrop", "dropped"),
		mk("b.go", 6, "errdrop", "dropped"),
		mk("c.go", 1, "deferinloop", "new finding"),
	}
	kept, absorbed, stale := base.Filter(current, root)
	if absorbed != 2 {
		t.Errorf("absorbed = %d, want 2", absorbed)
	}
	var keptMsgs []string
	for _, f := range kept {
		keptMsgs = append(keptMsgs, f.Msg)
	}
	sort.Strings(keptMsgs)
	if strings.Join(keptMsgs, "|") != "dropped|new finding" {
		t.Errorf("kept = %v, want [dropped, new finding]", keptMsgs)
	}
	if len(stale) != 1 || stale[0].Msg != "leak two" {
		t.Errorf("stale = %v, want the fixed 'leak two' entry", stale)
	}
}

// TestAnalyzerRegistryComplete parses this package's sources for *Analyzer
// declarations and cross-checks them against All(): an analyzer written but
// never registered silently runs on nothing.
func TestAnalyzerRegistryComplete(t *testing.T) {
	fset := token.NewFileSet()
	declared := make(map[string]bool)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", e.Name(), err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ue, ok := n.(*ast.UnaryExpr)
			if !ok || ue.Op != token.AND {
				return true
			}
			cl, ok := ue.X.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if id, ok := cl.Type.(*ast.Ident); !ok || id.Name != "Analyzer" {
				return true
			}
			for _, elt := range cl.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
					if lit, ok := kv.Value.(*ast.BasicLit); ok {
						declared[strings.Trim(lit.Value, `"`)] = true
					}
				}
			}
			return true
		})
	}
	registered := make(map[string]bool)
	for _, a := range All() {
		registered[a.Name] = true
	}
	for name := range declared {
		if !registered[name] {
			t.Errorf("analyzer %q is declared but missing from All()", name)
		}
	}
	for name := range registered {
		if !declared[name] {
			t.Errorf("analyzer %q is in All() but no declaration was found", name)
		}
	}
	if len(registered) < 13 {
		t.Errorf("All() has %d analyzers, want at least 13", len(registered))
	}
}

// raceCriticalPackages is the canonical list of concurrency-heavy packages
// that must run under the race detector in tier-1. Changing the verify.sh
// race line without updating this list (or vice versa) fails the build.
var raceCriticalPackages = []string{
	"./internal/distsearch/",
	"./internal/batcher/",
	"./internal/telemetry/",
	"./internal/ivf/",
	"./internal/hermes/",
	"./internal/slo/",
	"./internal/evlog/",
}

// TestVerifyScriptCoverage cross-checks scripts/verify.sh and its lint
// gate scripts/lint-diff.sh against this package: verify.sh must delegate
// to lint-diff.sh; lint-diff.sh must refresh the committed report through
// the -diff gate, re-gate test files, archive the facts dump, and run the
// artifact identity gate (byte-compare of every committed artifact against
// a fresh regeneration, alloc.lock gated on the recorded toolchain); the
// committed lint-report.json and lint-facts.json must exist; and
// verify.sh's -race package list must match raceCriticalPackages exactly.
func TestVerifyScriptCoverage(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(l.ModuleRoot, "scripts", "verify.sh"))
	if err != nil {
		t.Fatalf("reading verify.sh: %v", err)
	}
	script := string(data)

	if !regexp.MustCompile(`(?m)^\./scripts/lint-diff\.sh$`).MatchString(script) {
		t.Error("verify.sh does not invoke ./scripts/lint-diff.sh")
	}

	diffData, err := os.ReadFile(filepath.Join(l.ModuleRoot, "scripts", "lint-diff.sh"))
	if err != nil {
		t.Fatalf("reading lint-diff.sh: %v", err)
	}
	diffScript := string(diffData)
	for _, line := range []string{
		`^go run \./cmd/hermes-lint -json -diff lint-report\.json \./\.\.\. > lint-report\.json\.tmp$`,
		`^cmp -s lint-report\.json\.tmp lint-report\.json \|\| stale="\$stale lint-report\.json"$`,
		`^mv lint-report\.json\.tmp lint-report\.json$`,
		`^go run \./cmd/hermes-lint -diff lint-report\.json -include-tests \./\.\.\.$`,
		`^go run \./cmd/hermes-lint -facts -json \./\.\.\. > lint-facts\.json\.tmp$`,
		`^cmp -s lint-facts\.json\.tmp lint-facts\.json \|\| stale="\$stale lint-facts\.json"$`,
		`^\s*go run \./cmd/hermes-lint -update-alloclock \./\.\.\.$`,
		`^recorded=\$\(sed -n 's/\^# go //p' .* \| sort -u\)$`,
		`^\s*exit 1$`,
	} {
		if !regexp.MustCompile(`(?m)` + line).MatchString(diffScript) {
			t.Errorf("lint-diff.sh is missing a line matching %s", line)
		}
	}

	for _, artifact := range []string{"lint-report.json", "lint-facts.json"} {
		if _, err := os.Stat(filepath.Join(l.ModuleRoot, artifact)); err != nil {
			t.Errorf("committed lint artifact %s: %v", artifact, err)
		}
	}

	raceLine := regexp.MustCompile(`(?m)^go test -race (.+)$`).FindStringSubmatch(script)
	if raceLine == nil {
		t.Fatal("verify.sh has no `go test -race` line")
	}
	got := strings.Fields(raceLine[1])
	sort.Strings(got)
	want := append([]string(nil), raceCriticalPackages...)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("verify.sh -race packages = %v, want %v", got, want)
	}
	for _, pkg := range raceCriticalPackages {
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pkg, "./")))
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("race-critical package %s: %v", pkg, err)
		}
	}
}
