package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// EscapeAudit pins the compiler's escape-analysis and inlining verdicts for
// every //hermes:hotpath function to a committed per-package alloc.lock
// file — the compiler-verified counterpart of hotpathalloc. Where
// hotpathalloc reasons about the AST (syntactic allocation sites, the
// transitive alloc fact), escapeaudit diffs what `go build -gcflags=-m=2`
// actually decided (escape.go) against the recorded budget, so a refactor
// that makes a kernel argument escape or un-inlines a distance kernel fails
// scripts/verify.sh with a file:line diff instead of waiting for a
// benchmark to notice the allocs/op change.
//
// The lock is regenerated only by an explicit `hermes-lint
// -update-alloclock`, so every budget change is a reviewed commit. Any
// drift in either direction is a finding — new escapes and lost inlines are
// regressions to fix; vanished escapes and new inlines are improvements
// that still require re-recording, keeping the committed artifact
// byte-identical to a fresh regeneration (the verify.sh staleness gate
// depends on that).
//
// Diagnostics move between toolchains (inlining budgets, the escape
// analysis itself), so the lock header records the recording `go` version
// and the driver skips this pass with a warning when the running toolchain
// differs — see AllocLockGoVersions and cmd/hermes-lint.
var EscapeAudit = &Analyzer{
	Name: "escapeaudit",
	Doc:  "compiler escape/inline diagnostics of //hermes:hotpath functions must match the committed alloc.lock",
	Run:  runEscapeAudit,
}

// AllocLockFile is the per-package artifact filename.
const AllocLockFile = "alloc.lock"

// allocEntry is one locked diagnostic: Kind plus the normalized text from
// classifyDiag. Line numbers are deliberately NOT part of the lock — an
// unrelated edit above a hot function must not invalidate the budget — so
// entries form a multiset per function.
type allocEntry struct {
	Kind EscapeKind
	Text string
}

func (e allocEntry) key() string { return string(e.Kind) + "\x00" + e.Text }

// allocLock is a parsed alloc.lock.
type allocLock struct {
	GoVersion string
	// Funcs maps lock display name -> entry multiset; Order preserves the
	// file's function order for deterministic messages.
	Funcs map[string][]allocEntry
	Order []string
}

// hotFunc is one //hermes:hotpath function with its attributed diagnostics.
type hotFunc struct {
	Name  string
	Decl  *ast.FuncDecl
	Diags []EscapeDiag
}

func runEscapeAudit(p *Pass) {
	if p.Escape == nil {
		// The driver did not run the compiler (analyzer deselected, or the
		// toolchain differs from the recorded lock version and the pass was
		// version-gated off). Nothing to audit.
		return
	}
	hot := hotPathFuncs(p.Fset, p.Files, p.Escape)
	lockPath := filepath.Join(p.Dir, AllocLockFile)
	data, err := os.ReadFile(lockPath)
	if os.IsNotExist(err) {
		if len(hot) > 0 {
			p.Reportf(hot[0].Decl.Pos(), "%d //hermes:hotpath function(s) but no %s; run hermes-lint -update-alloclock to record the compiler escape/inline budget", len(hot), AllocLockFile)
		}
		return
	}
	if err != nil {
		p.Reportf(firstPos(p.Files), "reading %s: %v", AllocLockFile, err)
		return
	}
	if len(hot) == 0 {
		p.Reportf(firstPos(p.Files), "%s exists but the package declares no //hermes:hotpath functions; delete the stale lock or restore the annotations", AllocLockFile)
		return
	}
	lock, err := parseAllocLock(data)
	if err != nil {
		p.Reportf(firstPos(p.Files), "parsing %s: %v", AllocLockFile, err)
		return
	}
	if lock.GoVersion != p.Escape.GoVersion {
		p.Reportf(firstPos(p.Files), "%s was recorded with %s but the toolchain is %s; run hermes-lint -update-alloclock to re-record the budget", AllocLockFile, lock.GoVersion, p.Escape.GoVersion)
		return
	}
	diffAllocLock(p, lock, hot)
}

// hotPathFuncs collects the non-test //hermes:hotpath functions with their
// attributed compiler diagnostics, in declaration order. Attribution is
// lexical: a diagnostic belongs to the annotated function whose source range
// contains its line (leaking-param diagnostics land on the declaration line
// itself, body diagnostics inside it).
func hotPathFuncs(fset *token.FileSet, files []*ast.File, escape *EscapeDiags) []hotFunc {
	var out []hotFunc
	for _, f := range files {
		if isTestFile(fset, f) {
			continue
		}
		diags := escape.File(fset.Position(f.Pos()).Filename)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(hotpathDirective, fd.Doc) {
				continue
			}
			start := fset.Position(fd.Pos()).Line
			end := fset.Position(fd.End()).Line
			hf := hotFunc{Name: funcLockName(fd), Decl: fd}
			for _, dg := range diags {
				if dg.Line >= start && dg.Line <= end {
					hf.Diags = append(hf.Diags, dg)
				}
			}
			out = append(out, hf)
		}
	}
	return out
}

// funcLockName is the function's display name inside alloc.lock:
// "Search" for a plain function, "(*Searcher).Search" for a method.
func funcLockName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// diffAllocLock reports every way the current diagnostics diverge from the
// lock. Direction decides the wording — a new escape or a lost inline is a
// performance regression, the reverse directions are stale-lock drift — but
// every divergence is a finding: the committed artifact must stay
// byte-identical to a regeneration.
func diffAllocLock(p *Pass, lock *allocLock, hot []hotFunc) {
	hotByName := make(map[string]*hotFunc, len(hot))
	for i := range hot {
		hotByName[hot[i].Name] = &hot[i]
	}
	for _, name := range lock.Order {
		if hotByName[name] == nil {
			p.Reportf(firstPos(p.Files), "%s records function %s but the package has no such //hermes:hotpath function; run hermes-lint -update-alloclock", AllocLockFile, name)
		}
	}
	for _, hf := range hot {
		locked, ok := lock.Funcs[hf.Name]
		if !ok {
			p.Reportf(hf.Decl.Pos(), "//hermes:hotpath function %s is not recorded in %s; run hermes-lint -update-alloclock", hf.Name, AllocLockFile)
			continue
		}
		diffAllocFunc(p, hf, locked)
	}
}

func diffAllocFunc(p *Pass, hf hotFunc, locked []allocEntry) {
	lockedCount := make(map[string]int)
	for _, e := range locked {
		lockedCount[e.key()]++
	}
	curCount := make(map[string]int)
	for _, d := range hf.Diags {
		curCount[allocEntry{d.Kind, d.Text}.key()]++
	}

	// Current diagnostics above the locked count: report at the exact
	// compiler position (the file:line diff the issue asks for).
	seen := make(map[string]int)
	for _, d := range hf.Diags {
		k := allocEntry{d.Kind, d.Text}.key()
		seen[k]++
		if seen[k] <= lockedCount[k] {
			continue
		}
		pos := diagPos(p.Fset, hf.Decl, d)
		switch d.Kind {
		case KindInline:
			p.Reportf(pos, "newly inlined call to %s in //hermes:hotpath function %s is not recorded in %s; run hermes-lint -update-alloclock to record the improvement", d.Text, hf.Name, AllocLockFile)
		case KindLeak:
			p.Reportf(pos, "escape regression in //hermes:hotpath function %s: %q is not in %s — a leaking param forces the caller's value to heap-allocate; plug the leak or record it with hermes-lint -update-alloclock", hf.Name, d.Text, AllocLockFile)
		default:
			p.Reportf(pos, "escape regression in //hermes:hotpath function %s: %q is not in %s — the hot path gained a heap allocation; eliminate the escape or record it with hermes-lint -update-alloclock", hf.Name, d.Text, AllocLockFile)
		}
	}

	// Locked entries the compiler no longer emits: anchored at the function
	// declaration (there is no current source position to point at).
	var missing []allocEntry
	missingSeen := make(map[string]int)
	for _, e := range locked {
		missingSeen[e.key()]++
		if missingSeen[e.key()] > curCount[e.key()] {
			missing = append(missing, e)
		}
	}
	sort.Slice(missing, func(i, j int) bool {
		if missing[i].Kind != missing[j].Kind {
			return missing[i].Kind < missing[j].Kind
		}
		return missing[i].Text < missing[j].Text
	})
	for _, e := range missing {
		switch e.Kind {
		case KindInline:
			p.Reportf(hf.Decl.Pos(), "call to %s in //hermes:hotpath function %s is no longer inlined (%s records it) — call overhead is back on the hot path; restore inlining or re-record with hermes-lint -update-alloclock", e.Text, hf.Name, AllocLockFile)
		default:
			p.Reportf(hf.Decl.Pos(), "%s records %q for //hermes:hotpath function %s but the compiler no longer emits it; run hermes-lint -update-alloclock to tighten the budget", AllocLockFile, e.Text, hf.Name)
		}
	}
}

// diagPos converts a compiler diagnostic's file:line:col back into a
// token.Pos inside the declaring file, so Reportf carries the compiler's
// exact position. Falls back to the function declaration if the line is
// somehow unmapped.
func diagPos(fset *token.FileSet, fd *ast.FuncDecl, d EscapeDiag) token.Pos {
	tf := fset.File(fd.Pos())
	if tf == nil || d.Line < 1 || d.Line > tf.LineCount() {
		return fd.Pos()
	}
	p := tf.LineStart(d.Line) + token.Pos(d.Col-1)
	if p < tf.Pos(0) || p > tf.Pos(tf.Size()) {
		return tf.LineStart(d.Line)
	}
	return p
}

// GenerateAllocLock renders the package's escape/inline budget as the lock
// artifact, or nil when the package has no //hermes:hotpath functions (or
// the compiler was not run). A hot function with zero diagnostics still
// gets a `func` block — the empty budget is the contract worth keeping.
func GenerateAllocLock(pkg *Package, escape *EscapeDiags) []byte {
	if escape == nil {
		return nil
	}
	hot := hotPathFuncs(pkg.Fset, pkg.Files, escape)
	if len(hot) == 0 {
		return nil
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].Name < hot[j].Name })
	var b strings.Builder
	b.WriteString("# Code generated by hermes-lint -update-alloclock; DO NOT EDIT BY HAND.\n")
	b.WriteString("# Compiler escape/inline budget for //hermes:hotpath functions in package " + pkg.Path + ".\n")
	b.WriteString("# Entries are `go build -gcflags=-m=2` diagnostics attributed to each function,\n")
	b.WriteString("# recorded without line numbers so unrelated edits do not churn the lock.\n")
	b.WriteString("# Diagnostics depend on the toolchain below; escapeaudit is skipped on others.\n")
	b.WriteString("# go " + escape.GoVersion + "\n")
	for _, hf := range hot {
		b.WriteString("\nfunc " + hf.Name + "\n")
		entries := make([]allocEntry, 0, len(hf.Diags))
		for _, d := range hf.Diags {
			entries = append(entries, allocEntry{d.Kind, d.Text})
		}
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].Kind != entries[j].Kind {
				return entries[i].Kind < entries[j].Kind
			}
			return entries[i].Text < entries[j].Text
		})
		for _, e := range entries {
			b.WriteString("\t" + string(e.Kind) + " " + e.Text + "\n")
		}
	}
	return []byte(b.String())
}

// parseAllocLock reads a lock file back. The file is generated, so
// malformed lines are errors rather than silently skipped.
func parseAllocLock(data []byte) (*allocLock, error) {
	lock := &allocLock{Funcs: make(map[string][]allocEntry)}
	var cur string
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.TrimSpace(line) == "":
		case strings.HasPrefix(line, "# go "):
			lock.GoVersion = strings.TrimSpace(strings.TrimPrefix(line, "# go "))
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "func "):
			cur = strings.TrimSpace(strings.TrimPrefix(line, "func "))
			if cur == "" {
				return nil, fmt.Errorf("line %d: func with no name", i+1)
			}
			if _, dup := lock.Funcs[cur]; dup {
				return nil, fmt.Errorf("line %d: duplicate func %s", i+1, cur)
			}
			lock.Funcs[cur] = nil
			lock.Order = append(lock.Order, cur)
		case strings.HasPrefix(line, "\t"):
			if cur == "" {
				return nil, fmt.Errorf("line %d: entry line before any func", i+1)
			}
			kind, text, ok := strings.Cut(strings.TrimPrefix(line, "\t"), " ")
			if !ok || text == "" {
				return nil, fmt.Errorf("line %d: want \"<kind> <diagnostic>\"", i+1)
			}
			switch EscapeKind(kind) {
			case KindEscape, KindLeak, KindInline:
			default:
				return nil, fmt.Errorf("line %d: unknown diagnostic kind %q", i+1, kind)
			}
			lock.Funcs[cur] = append(lock.Funcs[cur], allocEntry{EscapeKind(kind), text})
		default:
			return nil, fmt.Errorf("line %d: unrecognized line %q", i+1, line)
		}
	}
	if lock.GoVersion == "" {
		return nil, fmt.Errorf("no \"# go <version>\" header; regenerate with hermes-lint -update-alloclock")
	}
	return lock, nil
}

// HotPathDirs returns the directories of packages that declare at least one
// //hermes:hotpath function in a non-test file — the build targets the
// escape runner needs.
func HotPathDirs(pkgs []*Package) []string {
	var dirs []string
	for _, pkg := range pkgs {
		if packageHasHotPath(pkg) {
			dirs = append(dirs, pkg.Dir)
		}
	}
	sort.Strings(dirs)
	return dirs
}

func packageHasHotPath(pkg *Package) bool {
	for _, f := range pkg.Files {
		if isTestFile(pkg.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && hasDirective(hotpathDirective, fd.Doc) {
				return true
			}
		}
	}
	return false
}

// AllocLockGoVersions collects the distinct `# go <version>` headers of the
// committed alloc.lock files under the given package dirs. The driver
// compares them with the running toolchain before invoking the compiler:
// on mismatch it skips escapeaudit with a warning instead of hard-failing
// contributors on a different toolchain.
func AllocLockGoVersions(dirs []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, dir := range dirs {
		data, err := os.ReadFile(filepath.Join(dir, AllocLockFile))
		if err != nil {
			continue
		}
		lock, err := parseAllocLock(data)
		if err != nil || seen[lock.GoVersion] {
			continue
		}
		seen[lock.GoVersion] = true
		out = append(out, lock.GoVersion)
	}
	sort.Strings(out)
	return out
}

// UpdateAllocLocks writes alloc.lock for every package with
// //hermes:hotpath functions (see the escapeaudit analyzer) and returns the
// paths written. Analyzers stay read-only; regeneration is this explicit
// driver action (hermes-lint -update-alloclock), so a budget change is
// always a reviewed commit, never a side effect of running the linter.
func UpdateAllocLocks(pkgs []*Package, escape *EscapeDiags) ([]string, error) {
	var written []string
	for _, pkg := range pkgs {
		data := GenerateAllocLock(pkg, escape)
		if data == nil {
			continue
		}
		path := filepath.Join(pkg.Dir, AllocLockFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return written, fmt.Errorf("lint: writing %s: %w", path, err)
		}
		written = append(written, path)
	}
	return written, nil
}
