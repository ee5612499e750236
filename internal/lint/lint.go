// Package lint is a zero-dependency static-analysis framework for the Hermes
// reproduction, built on stdlib go/parser, go/ast, and go/types.
//
// The paper's headline numbers (hierarchical-search latency, shard load
// imbalance, the energy model) are only meaningful if the reproduction is
// deterministic and data-race-free. The framework loads the whole module
// from source (Loader), runs the cross-package fact engine over the
// resolved call graph (ComputeFacts — a monotone-fixpoint framework with
// four registered lattices: io, alloc, acquires, blocks; see factengine.go
// and Lattices), and runs the analyzer suite over every package with deterministic file:line:col finding order,
// optional machine-readable JSON output (Report), a findings baseline
// (Baseline), and the generated per-package alloc.lock budgets
// (UpdateAllocLocks). The analyzers encode the project rules:
//
//   - globalrand:   no package-global math/rand in library code (index
//     builds must be bit-reproducible from a config seed)
//   - wallclock:    no wall-clock reads inside analytical-model packages
//     (simulated time comes from the model, never from time.Now)
//   - goroutinectx: every `go func` literal needs a visible completion
//     mechanism, and loop variables are passed as parameters
//   - lockcopy:     no passing/returning structs that carry sync primitives
//     by value
//   - errdrop:      no silently discarded errors from Close/Flush/Encode
//     style calls
//   - lockheldio:   no mutex held across network/file I/O, channel
//     operations, or time.Sleep (uses the cross-package I/O facts)
//   - poolescape:   sync.Pool Get values must not escape via return,
//     struct field, or package-level variable
//   - deferinloop:  no resource-holding defer inside a loop body
//   - hotpathclock: //hermes:hotpath functions must keep clock reads
//     gated behind a conditional
//   - hotpathalloc: //hermes:hotpath functions must keep heap allocation
//     — direct sites and transitively allocating calls — gated behind a
//     conditional (uses the alloc facts)
//   - lockorder:    the module-wide lock-acquisition-order graph must stay
//     acyclic (uses the acquires facts and held-set walking)
//   - goroutineleak: go statements in request-path packages need a
//     reachable termination signal (uses the blocks facts)
//   - metricname:   telemetry registry metric names must follow
//     hermes_<subsystem>_<name>_{total,seconds,bytes,ratio}
//   - escapeaudit:  compiler escape/inline diagnostics of //hermes:hotpath
//     functions must match the committed alloc.lock (runs the go compiler
//     via the escape runner; skipped on toolchain mismatch)
//   - ctxflow:      exported request-path functions that reach network I/O
//     must accept a cancellable context or deadline (uses the netio and
//     cancel facts)
//   - poolretain:   values derived from a sync.Pool Get must not be used
//     after the matching Put returns the buffer
//   - chanbound:    request-path queues must stay bounded — no
//     unbounded-growth appends under a held mutex, no effectively
//     unbounded channel capacities
//
// Findings can be suppressed case-by-case with a directive comment on the
// same line or the line above:
//
//	//lint:ignore CHECKID reason why this occurrence is fine
//
// The check ID may be a comma-separated list. A directive without a reason
// is itself reported (check ID "lintdirective"): suppressions must be
// auditable.
//
// To add a new analyzer: create a file in this package declaring a
// *Analyzer with a Run func over *Pass, register it in All, and add a
// fixture package under testdata/src/<name>/ with a table-driven test.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported problem.
type Finding struct {
	Check string
	Pos   token.Position
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Msg, f.Check)
}

// Analyzer is a single named check.
type Analyzer struct {
	// Name is the check ID used in output, -only/-skip selection, and
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the package in pass and reports findings.
	Run func(*Pass)
	// TestFiles marks the analyzer as meaningful over _test.go files when
	// the driver runs with -include-tests. The concurrency and resource
	// checks apply (a pool misuse in a race test hides a real hazard);
	// style rules that tests legitimately break (dropped Close errors,
	// ad-hoc randomness) leave it false and keep skipping test files.
	TestFiles bool
}

// All returns every registered analyzer in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		GlobalRand, WallClock, GoroutineCtx, LockCopy, ErrDrop,
		LockHeldIO, PoolEscape, DeferInLoop, HotPathClock,
		HotPathAlloc, LockOrder, GoroutineLeak, MetricName,
		EscapeAudit, CtxFlow, PoolRetain, ChanBound,
	}
}

// Select filters All() by the -only / -skip comma-separated check lists.
// Empty strings mean "no constraint". Unknown names are an error so typos
// do not silently disable a check.
func Select(only, skip string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	parse := func(list string) (map[string]bool, error) {
		set := make(map[string]bool)
		if strings.TrimSpace(list) == "" {
			return set, nil
		}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("lint: unknown check %q (have %s)", name, strings.Join(checkNames(), ", "))
			}
			set[name] = true
		}
		return set, nil
	}
	onlySet, err := parse(only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse(skip)
	if err != nil {
		return nil, err
	}
	var out []*Analyzer
	for _, a := range All() {
		if len(onlySet) > 0 && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

func checkNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// Pass carries one package's parsed and type-checked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Dir is the package's directory on disk (for per-package artifacts
	// such as alloc.lock).
	Dir string
	// Facts is the cross-package fact set (nil when running a single
	// package standalone; Facts methods are nil-tolerant).
	Facts *Facts
	// Escape carries the compiler escape/inlining diagnostics for the run
	// (see EscapeRunner); nil when the driver did not invoke the compiler,
	// which makes escapeaudit a no-op.
	Escape *EscapeDiags
	// IncludeTests reports whether the loader parsed _test.go files into
	// this package; see (*Pass).SkipFile.
	IncludeTests bool

	ignores  ignoreIndex
	findings *[]Finding
}

// SkipFile reports whether the analyzer should skip f: test files are
// analyzed only when the run includes them AND the analyzer opts in via
// TestFiles.
func (p *Pass) SkipFile(f *ast.File) bool {
	if !isTestFile(p.Fset, f) {
		return false
	}
	return !p.IncludeTests || !p.Analyzer.TestFiles
}

// Reportf records a finding at pos unless an ignore directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Check: p.Analyzer.Name,
		Pos:   position,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-tolerant p.Info.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// RunOptions configures an analysis run beyond the analyzer list.
type RunOptions struct {
	// Facts is the cross-package fact set (see ComputeFacts); nil degrades
	// fact-consuming analyzers to their stdlib-only seed knowledge.
	Facts *Facts
	// Escape is the compiler diagnostic set for escapeaudit; nil disables
	// the audit (no compiler run, or toolchain/lock version mismatch).
	Escape *EscapeDiags
	// IncludeTests marks the packages as having been loaded with test
	// files, unlocking TestFiles-capable analyzers on them.
	IncludeTests bool
}

// RunPackage runs the analyzers over one loaded package and returns the
// findings sorted by position. Malformed //lint:ignore directives are
// reported under the always-on check ID "lintdirective".
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	return RunPackageOpts(pkg, analyzers, RunOptions{})
}

// RunPackageOpts is RunPackage with explicit run options.
func RunPackageOpts(pkg *Package, analyzers []*Analyzer, opts RunOptions) []Finding {
	var findings []Finding
	ign := buildIgnoreIndex(pkg.Fset, pkg.Files, &findings)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:     a,
			Fset:         pkg.Fset,
			Files:        pkg.Files,
			Pkg:          pkg.Types,
			Info:         pkg.Info,
			Dir:          pkg.Dir,
			Facts:        opts.Facts,
			Escape:       opts.Escape,
			IncludeTests: opts.IncludeTests,
			ignores:      ign,
			findings:     &findings,
		}
		a.Run(pass)
	}
	SortFindings(findings)
	return findings
}

// RunPackages runs the analyzers over every package and returns one globally
// sorted finding list — the deterministic file:line:col order the driver
// prints and the JSON report serializes.
func RunPackages(pkgs []*Package, analyzers []*Analyzer, opts RunOptions) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, RunPackageOpts(pkg, analyzers, opts)...)
	}
	SortFindings(findings)
	return findings
}

// SortFindings orders findings by filename, line, column, then check ID.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Check < findings[j].Check
	})
}

// ignoreIndex maps file -> line -> suppressed check IDs. A directive on
// line L suppresses findings on L (trailing comment) and L+1 (comment on
// its own line above the flagged statement).
type ignoreIndex map[string]map[int]map[string]bool

const ignorePrefix = "lint:ignore"

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File, findings *[]Finding) ignoreIndex {
	idx := make(ignoreIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					*findings = append(*findings, Finding{
						Check: "lintdirective",
						Pos:   pos,
						Msg:   "malformed //lint:ignore directive: need a check ID and a reason",
					})
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					idx[pos.Filename] = byLine
				}
				checks := byLine[pos.Line]
				if checks == nil {
					checks = make(map[string]bool)
					byLine[pos.Line] = checks
				}
				for _, name := range strings.Split(fields[0], ",") {
					checks[strings.TrimSpace(name)] = true
				}
			}
		}
	}
	return idx
}

func (idx ignoreIndex) suppressed(check string, pos token.Position) bool {
	byLine := idx[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if byLine[line][check] {
			return true
		}
	}
	return false
}

// pkgNameOf resolves an expression to the *types.PkgName it denotes, if it
// is a plain package qualifier (e.g. the `rand` in rand.Intn).
func pkgNameOf(info *types.Info, e ast.Expr) (*types.PkgName, bool) {
	id, ok := e.(*ast.Ident)
	if !ok || info == nil {
		return nil, false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return pn, ok
}

// isTestFile reports whether the file's position is in a _test.go file.
// The loader already excludes test files; analyzers keep the guard so they
// stay correct if fed files from elsewhere.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// firstPos anchors package-level findings at the first file's package clause.
func firstPos(files []*ast.File) token.Pos {
	if len(files) == 0 {
		return token.NoPos
	}
	return files[0].Pos()
}

// hasDirective reports whether any comment group carries //<directive>
// (optionally followed by explanatory text after a space).
func hasDirective(directive string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimPrefix(c.Text, "//")
			if text == directive || strings.HasPrefix(text, directive+" ") {
				return true
			}
		}
	}
	return false
}
