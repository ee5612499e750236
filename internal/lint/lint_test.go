package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture parses and type-checks one fixture package under
// testdata/src. Fixtures must type-check cleanly: analyzer behavior on
// broken code is best-effort and not what these tests pin down.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(%s): got %d packages, want 1", name, len(pkgs))
	}
	for _, terr := range pkgs[0].TypeErrors {
		t.Errorf("fixture %s type error: %v", name, terr)
	}
	return pkgs[0]
}

type wantFinding struct {
	line   int
	check  string
	substr string
}

func checkFindings(t *testing.T, got []Finding, want []wantFinding) {
	t.Helper()
	for _, f := range got {
		t.Logf("finding: %s", f)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d", len(got), len(want))
	}
	for i, w := range want {
		f := got[i]
		if f.Pos.Line != w.line {
			t.Errorf("finding %d at line %d, want line %d (%s)", i, f.Pos.Line, w.line, f.Msg)
		}
		if f.Check != w.check {
			t.Errorf("finding %d check %q, want %q", i, f.Check, w.check)
		}
		if !strings.Contains(f.Msg, w.substr) {
			t.Errorf("finding %d message %q does not contain %q", i, f.Msg, w.substr)
		}
	}
}

// runFixture runs a single analyzer over its fixture package.
func runFixture(t *testing.T, a *Analyzer) []Finding {
	t.Helper()
	return RunPackage(loadFixture(t, a.Name), []*Analyzer{a})
}

func TestGlobalRand(t *testing.T) {
	checkFindings(t, runFixture(t, GlobalRand), []wantFinding{
		{8, "globalrand", "rand.Float32"},
		{12, "globalrand", "rand.Intn"},
		{13, "globalrand", "rand.Shuffle"},
		{14, "globalrand", "rand.Perm"},
	})
}

func TestWallClock(t *testing.T) {
	checkFindings(t, runFixture(t, WallClock), []wantFinding{
		{8, "wallclock", "time.Now"},
		{12, "wallclock", "time.Since"},
		{16, "wallclock", "time.Until"},
	})
}

func TestGoroutineCtx(t *testing.T) {
	checkFindings(t, runFixture(t, GoroutineCtx), []wantFinding{
		{10, "goroutinectx", "no visible completion mechanism"},
		{21, "goroutinectx", "captures loop variable i"},
	})
}

func TestLockCopy(t *testing.T) {
	checkFindings(t, runFixture(t, LockCopy), []wantFinding{
		{21, "lockcopy", `parameter "g"`},
		{25, "lockcopy", `parameter "w"`},
		{29, "lockcopy", "result"},
		{33, "lockcopy", `receiver "g"`},
		{37, "lockcopy", "func literal"},
	})
}

func TestErrDrop(t *testing.T) {
	checkFindings(t, runFixture(t, ErrDrop), []wantFinding{
		{17, "errdrop", "os.File.Close"},
		{18, "errdrop", "os.File.Sync"},
		{19, "errdrop", "closer.Close"},
		{20, "errdrop", "os.File.Write"},
		{24, "errdrop", "gob.Encoder.Encode"},
	})
}

// TestIgnoreDirectives pins the directive contract: a directive needs a
// reason to count, applies only to its named checks, and may name several.
func TestIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "directives")
	checkFindings(t, RunPackage(pkg, All()), []wantFinding{
		{7, "lintdirective", "malformed"},
		{8, "globalrand", "rand.Int"},
		{13, "globalrand", "rand.Float32"},
	})
}

func TestSelect(t *testing.T) {
	tests := []struct {
		only, skip string
		want       []string
		wantErr    bool
	}{
		{"", "", []string{
			"globalrand", "wallclock", "goroutinectx", "lockcopy", "errdrop",
			"lockheldio", "poolescape", "deferinloop", "hotpathclock",
			"hotpathalloc", "lockorder", "goroutineleak", "metricname",
			"escapeaudit", "ctxflow", "poolretain", "chanbound",
		}, false},
		{"globalrand,errdrop", "", []string{"globalrand", "errdrop"}, false},
		{"", "goroutinectx,lockheldio,poolescape,deferinloop,hotpathclock," +
			"hotpathalloc,lockorder,goroutineleak,metricname," +
			"escapeaudit,ctxflow,poolretain,chanbound",
			[]string{"globalrand", "wallclock", "lockcopy", "errdrop"}, false},
		{"globalrand", "globalrand", nil, false},
		{"nosuchcheck", "", nil, true},
		{"", "nosuchcheck", nil, true},
	}
	for _, tc := range tests {
		got, err := Select(tc.only, tc.skip)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Select(%q, %q): expected error", tc.only, tc.skip)
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q, %q): %v", tc.only, tc.skip, err)
			continue
		}
		var names []string
		for _, a := range got {
			names = append(names, a.Name)
		}
		if strings.Join(names, ",") != strings.Join(tc.want, ",") {
			t.Errorf("Select(%q, %q) = %v, want %v", tc.only, tc.skip, names, tc.want)
		}
	}
}

// TestLoaderModuleImports loads a real module package (with module-internal
// and stdlib imports) to prove the source-importer path works offline.
func TestLoaderModuleImports(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath != "repro" {
		t.Fatalf("ModulePath = %q, want repro", l.ModulePath)
	}
	pkgs, err := l.Load(filepath.Join(l.ModuleRoot, "internal", "kmeans"))
	if err != nil {
		t.Fatalf("Load kmeans: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Types == nil {
		t.Fatalf("kmeans did not load: %+v", pkgs)
	}
	if len(pkgs[0].TypeErrors) > 0 {
		t.Fatalf("kmeans type errors: %v", pkgs[0].TypeErrors)
	}
	if got := pkgs[0].Path; got != "repro/internal/kmeans" {
		t.Errorf("Path = %q, want repro/internal/kmeans", got)
	}
}
