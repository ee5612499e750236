package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The want harness: fixture packages under testdata/src annotate expected
// findings in place with trailing comments of the form
//
//	// want "substring" "another substring"
//
// Every finding must be claimed by a want on its exact file:line (substring
// match against the message), and every want must be claimed by a finding.
// This keeps expectations next to the code they describe instead of in a
// line-number table that rots on every fixture edit.

var wantCommentRe = regexp.MustCompile(`//\s*want\s((?:\s*"(?:[^"\\]|\\.)*")+)\s*$`)
var wantStringRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants scans the fixture's .go files for want comments, returning
// expectations keyed by "filebase:line".
func parseWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir %s: %v", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading fixture %s: %v", e.Name(), err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantCommentRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", e.Name(), i+1)
			for _, sm := range wantStringRe.FindAllStringSubmatch(m[1], -1) {
				wants[key] = append(wants[key], sm[1])
			}
		}
	}
	return wants
}

// runWantFixture loads testdata/src/<name>, runs the analyzers, and checks
// findings against the fixture's want comments. Facts are computed over the
// fixture itself so cross-function fact propagation is exercised in-package.
func runWantFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, name)
	runWantFixturePkg(t, pkg, analyzers, RunOptions{Facts: ComputeFacts([]*Package{pkg})})
}

// runWantFixturePkg is runWantFixture for callers that need to build the
// RunOptions themselves (escapeaudit fixtures fabricate EscapeDiags).
func runWantFixturePkg(t *testing.T, pkg *Package, analyzers []*Analyzer, opts RunOptions) {
	t.Helper()
	findings := RunPackageOpts(pkg, analyzers, opts)
	wants := parseWants(t, pkg.Dir)

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		claimed := false
		for i, w := range wants[key] {
			if strings.Contains(f.Msg, w) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected finding at %s: %s (%s)", key, f.Msg, f.Check)
		}
	}
	var leftover []string
	for key, ws := range wants {
		for _, w := range ws {
			leftover = append(leftover, fmt.Sprintf("%s: want %q not matched", key, w))
		}
	}
	sort.Strings(leftover)
	for _, l := range leftover {
		t.Error(l)
	}
}

func TestLockHeldIO(t *testing.T)       { runWantFixture(t, "lockheldio", []*Analyzer{LockHeldIO}) }
func TestHotPathAlloc(t *testing.T)     { runWantFixture(t, "hotpathalloc", []*Analyzer{HotPathAlloc}) }
func TestGoroutineLeak(t *testing.T)    { runWantFixture(t, "goroutineleak", []*Analyzer{GoroutineLeak}) }
func TestLockOrderFixture(t *testing.T) { runWantFixture(t, "lockorder", []*Analyzer{LockOrder}) }
func TestMetricName(t *testing.T)       { runWantFixture(t, "metricname", []*Analyzer{MetricName}) }

// TestLockOrderWitnesses pins the shape the fixture's want substrings
// cannot: one finding per cycle, and the A/B finding spells out BOTH
// conflicting acquisition paths so the report alone localizes the deadlock.
func TestLockOrderWitnesses(t *testing.T) {
	pkg := loadFixture(t, "lockorder")
	opts := RunOptions{Facts: ComputeFacts([]*Package{pkg})}
	findings := RunPackageOpts(pkg, []*Analyzer{LockOrder}, opts)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (A/B and C/D cycles; E/F suppressed): %v", len(findings), findings)
	}
	ab := findings[0].Msg
	for _, w := range []string{
		"lockorder.A.mu -> lockorder.B.mu", "in lockorder.ab",
		"lockorder.B.mu -> lockorder.A.mu", "in lockorder.ba",
	} {
		if !strings.Contains(ab, w) {
			t.Errorf("A/B cycle finding missing witness %q: %s", w, ab)
		}
	}
	cd := findings[1].Msg
	for _, w := range []string{
		"lockorder.C.mu -> lockorder.D.mu", "via call to lockorder.bumpD",
		"lockorder.D.mu -> lockorder.C.mu", "in lockorder.dThenC",
	} {
		if !strings.Contains(cd, w) {
			t.Errorf("C/D cycle finding missing witness %q: %s", w, cd)
		}
	}
}

func TestPoolEscape(t *testing.T)   { runWantFixture(t, "poolescape", []*Analyzer{PoolEscape}) }
func TestPoolRetain(t *testing.T)   { runWantFixture(t, "poolretain", []*Analyzer{PoolRetain}) }
func TestCtxFlow(t *testing.T)      { runWantFixture(t, "ctxflow", []*Analyzer{CtxFlow}) }
func TestChanBound(t *testing.T)    { runWantFixture(t, "chanbound", []*Analyzer{ChanBound}) }
func TestDeferInLoop(t *testing.T)  { runWantFixture(t, "deferinloop", []*Analyzer{DeferInLoop}) }
func TestHotPathClock(t *testing.T) { runWantFixture(t, "hotpathclock", []*Analyzer{HotPathClock}) }
