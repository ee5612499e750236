// Command hermes-lint runs the project's custom static-analysis suite
// (see internal/lint) over package patterns and exits non-zero on any
// finding. It is part of the tier-1 verify path (scripts/verify.sh): the
// paper's latency/imbalance/energy claims depend on deterministic,
// race-free code, and these checks machine-enforce the project rules that
// keep it that way.
//
// Usage:
//
//	hermes-lint [flags] [packages...]
//	hermes-lint ./...                      # whole module (default)
//	hermes-lint -only globalrand,errdrop ./internal/...
//	hermes-lint -include-tests ./...       # also analyze in-package _test.go files
//	hermes-lint -json ./... > lint.json    # machine-readable report on stdout
//	hermes-lint -diff lint-report.json ./... # fail only on NEW findings
//	hermes-lint -update-alloclock ./...    # regenerate alloc.lock artifacts
//	hermes-lint -list                      # describe checks and fact lattices
//	hermes-lint -facts ./...               # dump the cross-package facts
//	hermes-lint -facts -json ./...         # ... as stable JSON
//
// Before any analyzer runs, the driver computes the cross-package fact
// lattices (io, alloc, acquires, blocks, netio, cancel — see internal/
// lint's fact engine) over every module package reached while loading, so
// analyzers like lockheldio, hotpathalloc, lockorder, goroutineleak, and
// ctxflow see through call chains that end at a socket, an allocation, or
// a mutex three packages away.
//
// When the escapeaudit check is selected and a matched package declares
// //hermes:hotpath functions, the driver additionally invokes the go
// compiler (`go build -gcflags=-m=2`, cached by the go tool) to collect
// escape/inlining diagnostics and diffs them against each package's
// committed alloc.lock. Because those diagnostics move between toolchains,
// the pass runs only when `go env GOVERSION` matches the version recorded
// in the lock headers; on mismatch the driver prints a warning to stderr
// and skips escapeaudit rather than hard-blocking contributors on a newer
// toolchain. -update-alloclock always records with the current toolchain.
//
// A baseline file (-baseline) subtracts previously accepted findings,
// matched by (check, file, message); -write-baseline records the current
// findings to bootstrap one. Entries that no longer match anything are
// reported so the baseline shrinks toward empty. -diff is the incremental-
// adoption variant the CI gate uses (scripts/lint-diff.sh): the full
// report is still computed (and emitted with -json), but the exit status
// considers only findings absent from the given committed report, so a new
// analyzer can land with known findings and tighten over time.
//
// Patterns ending in /... walk recursively (testdata, vendor, and hidden
// directories are skipped); any other argument names one package
// directory, which is how the lint fixtures under
// internal/lint/testdata/src/ can be linted directly.
//
// Exit status: 0 clean, 1 findings (with -diff: new findings), 2 usage or
// load error — including parse failures in dependency packages, which
// type-check error recovery would otherwise swallow.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	var (
		only          = flag.String("only", "", "comma-separated check IDs to run exclusively")
		skip          = flag.String("skip", "", "comma-separated check IDs to disable")
		list          = flag.Bool("list", false, "list available checks and fact lattices, then exit")
		jsonOut       = flag.Bool("json", false, "write the machine-readable report (or facts dump) to stdout")
		includeTests  = flag.Bool("include-tests", false, "also analyze in-package _test.go files (TestFiles-capable checks only)")
		baselinePath  = flag.String("baseline", "", "baseline file of accepted findings to subtract")
		diffPath      = flag.String("diff", "", "committed report to diff against: report everything, but exit 1 only on findings absent from it")
		writeBaseline = flag.String("write-baseline", "", "write current findings to this baseline file and exit")
		updateAlloc   = flag.Bool("update-alloclock", false, "regenerate alloc.lock artifacts for matched packages (runs the compiler) and exit")
		showFacts     = flag.Bool("facts", false, "dump the cross-package fact lattices and lock-order graph, then exit")
		typeWarn      = flag.Bool("typewarnings", false, "print type-check problems encountered while loading")
	)
	flag.Parse()

	if *list {
		fmt.Println("checks:")
		for _, a := range lint.All() {
			fmt.Printf("  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Println("fact lattices:")
		for _, la := range lint.Lattices() {
			fmt.Printf("  %-14s %s\n", la.Name, la.Doc)
		}
		return
	}
	if *baselinePath != "" && *diffPath != "" {
		fatal(fmt.Errorf("hermes-lint: -baseline and -diff are mutually exclusive (both subtract accepted findings)"))
	}

	analyzers, err := lint.Select(*only, *skip)
	if err != nil {
		fatal(err)
	}
	if len(analyzers) == 0 {
		fatal(fmt.Errorf("hermes-lint: -only/-skip selected no checks"))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = *includeTests
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	if len(pkgs) == 0 {
		fatal(fmt.Errorf("hermes-lint: no packages matched %v", patterns))
	}
	// A syntactically broken dependency is a load failure, not a lint
	// finding: type-check recovery would analyze around it and exit 0.
	if errs := loader.HardErrors(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "hermes-lint: load: %v\n", e)
		}
		os.Exit(2)
	}
	if *typeWarn {
		for _, pkg := range pkgs {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "hermes-lint: typecheck %s: %v\n", pkg.Path, terr)
			}
		}
	}

	// Compiler escape/inlining diagnostics, collected once and shared by the
	// escapeaudit pass and the alloc.lock artifact generator. nil when
	// nothing needs them, no package declares a hot path, or the toolchain
	// differs from the recorded lock version (skip-with-warning: diagnostics
	// are toolchain-specific, and a contributor on a newer go should not be
	// hard-blocked by a lock they cannot legitimately regenerate).
	var escape *lint.EscapeDiags
	hotDirs := lint.HotPathDirs(pkgs)
	if (*updateAlloc || hasAnalyzer(analyzers, "escapeaudit")) && len(hotDirs) > 0 {
		runner := lint.NewEscapeRunner(loader.ModuleRoot)
		version, err := runner.GoVersion()
		if err != nil {
			fatal(err)
		}
		skip := false
		if !*updateAlloc {
			for _, locked := range lint.AllocLockGoVersions(hotDirs) {
				if locked != version {
					fmt.Fprintf(os.Stderr, "hermes-lint: skipping escapeaudit: %s recorded with %s, toolchain is %s (regenerate with -update-alloclock on a matching toolchain)\n", lint.AllocLockFile, locked, version)
					skip = true
				}
			}
		}
		if !skip {
			escape, err = runner.Run(hotDirs)
			if err != nil {
				fatal(err)
			}
		}
	}

	if *updateAlloc {
		written, err := lint.UpdateAllocLocks(pkgs, escape)
		if err != nil {
			fatal(err)
		}
		for _, path := range written {
			fmt.Printf("hermes-lint: wrote %s\n", path)
		}
		return
	}

	// Facts span every package reached during loading, not just the pattern
	// targets: a lockheldio finding in a target package may hinge on I/O
	// buried in a dependency, and the lock-order graph is module-wide by
	// construction.
	facts := lint.ComputeFacts(loader.Cached())
	if *showFacts {
		dump := facts.Dump(loader.ModuleRoot)
		if *jsonOut {
			data, err := dump.MarshalIndent()
			if err != nil {
				fatal(err)
			}
			if _, err := os.Stdout.Write(data); err != nil {
				fatal(err)
			}
			return
		}
		for _, fn := range dump.IO {
			fmt.Println("io       " + fn)
		}
		for _, fn := range dump.Alloc {
			fmt.Println("alloc    " + fn)
		}
		for _, fn := range dump.Blocks {
			fmt.Println("blocks   " + fn)
		}
		for _, a := range dump.Acquires {
			fmt.Printf("acquires %s -> %v\n", a.Func, a.Mutexes)
		}
		for _, e := range dump.LockEdges {
			via := ""
			if e.Via != "" {
				via = " via " + e.Via
			}
			fmt.Printf("lockedge %s -> %s at %s in %s%s\n", e.From, e.To, e.Pos, e.Func, via)
		}
		return
	}

	findings := lint.RunPackages(pkgs, analyzers, lint.RunOptions{
		Facts:        facts,
		Escape:       escape,
		IncludeTests: *includeTests,
	})

	if *writeBaseline != "" {
		if err := lint.WriteBaseline(*writeBaseline, loader.ModuleRoot, findings); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hermes-lint: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return
	}
	if *baselinePath != "" {
		base, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		var absorbed int
		var stale []lint.JSONFinding
		findings, absorbed, stale = base.Filter(findings, loader.ModuleRoot)
		if absorbed > 0 {
			fmt.Fprintf(os.Stderr, "hermes-lint: baseline absorbed %d finding(s)\n", absorbed)
		}
		for _, e := range stale {
			fmt.Fprintf(os.Stderr, "hermes-lint: stale baseline entry (fixed? delete it): %s %s: %s\n", e.Check, e.File, e.Msg)
		}
	}

	// -diff gates, it does not filter: the JSON report keeps every current
	// finding (so the archived artifact refreshes each run), while the exit
	// status and the text listing consider only findings the committed
	// report does not already carry.
	gate := findings
	if *diffPath != "" {
		base, err := lint.LoadBaseline(*diffPath)
		if err != nil {
			fatal(err)
		}
		var absorbed int
		gate, absorbed, _ = base.Filter(findings, loader.ModuleRoot)
		if absorbed > 0 {
			fmt.Fprintf(os.Stderr, "hermes-lint: diff base %s absorbed %d finding(s)\n", *diffPath, absorbed)
		}
	}

	if *jsonOut {
		report := lint.NewReport(loader.ModulePath, loader.ModuleRoot, pkgs, analyzers, findings)
		data, err := report.MarshalIndent()
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(data); err != nil {
			fatal(err)
		}
	} else {
		cwd, _ := os.Getwd()
		for _, f := range gate {
			pos := f.Pos
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !filepath.IsAbs(rel) {
					pos.Filename = rel
				}
			}
			fmt.Printf("%s: %s (%s)\n", pos, f.Msg, f.Check)
		}
	}
	if len(gate) > 0 {
		what := "finding(s)"
		if *diffPath != "" {
			what = "new finding(s)"
		}
		fmt.Fprintf(os.Stderr, "hermes-lint: %d %s in %d package(s)\n", len(gate), what, len(pkgs))
		os.Exit(1)
	}
}

func hasAnalyzer(analyzers []*lint.Analyzer, name string) bool {
	for _, a := range analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
