// Command hermes-perf is the repository's one benchmark. It builds each
// workload's store, serves it through the real path (batcher, coordinator,
// loopback TCP, nodes, scan), measures the end-to-end metrics with tracing
// off and the per-layer metrics in a separate traced run, checks the
// answers, and exits non-zero on a wrong one. See README.md.
//
//	hermes-perf -seed 7                       every workload, both runs, result file
//	hermes-perf -workload scan_bound -trace 0 one run; last line is the driver's JSON
//	hermes-perf -compare a.json b.json        apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/vec"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, nil)) }

// realMain is main with its inputs as arguments; tamper is the smoke test's
// hook for corrupting the answers the correctness gate sees. It returns the
// exit code: 0, 1 for a wrong answer, a failed operation or a regression,
// 2 when the command could not run.
func realMain(args []string, stdout io.Writer, tamper func([]vec.Neighbor)) int {
	fs := flag.NewFlagSet("hermes-perf", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run only this workload and print the driver's JSON as the last line")
		seed    = fs.Int64("seed", 1, "seed of the corpus, the queries, the writes and the arrival schedule")
		seconds = fs.Float64("seconds", 10, "length of the timed window")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		quick   = fs.Bool("quick", false, "tiny corpora and one-second windows: a smoke test, not a measurement")
		out     = fs.String("out", "", "result file (default <root>/.bench_build/hermes-perf/result-seed<N>.json)")
		compare = fs.Bool("compare", false, "compare two result files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(stdout, filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	dir := filepath.Join(root, ".bench_build", "hermes-perf")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, quick: *quick, dir: dir, tamper: tamper}
	if *quick {
		cfg.seconds = 1
	}

	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return fatal(err)
		}
		cfg.w, cfg.trace = w, *trace == 1
		res, err := runOne(stdout, cfg)
		if err != nil {
			return fatal(err)
		}
		if err := printDriverLine(stdout, res); err != nil {
			return fatal(err)
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	file := resultFile{Env: environment(root)}
	correct := true
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.w, cfg.trace = w, traced
			res, err := runOne(stdout, cfg)
			if err != nil {
				return fatal(err)
			}
			file.Runs = append(file.Runs, *res)
			correct = correct && res.Correct
		}
	}
	if *out == "" {
		*out = filepath.Join(dir, fmt.Sprintf("result-seed%d.json", *seed))
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fatal(err)
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return fatal(err)
	}
	fmt.Fprintln(stdout, "result file:", *out)
	if !correct {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "hermes-perf:", err)
	return 2
}

// runOne runs one workload traced or untraced and prints every metric by
// name with its unit and its spread over the run's slices.
func runOne(out io.Writer, cfg runConfig) (*runResult, error) {
	if cfg.quick {
		cfg.w = cfg.w.quick()
	}
	run := runUntraced
	if cfg.trace {
		run = runTraced
	}
	res, err := run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.w.name, err)
	}
	kind := "end to end, tracing off"
	if cfg.trace {
		kind = "per layer, traced run"
	}
	fmt.Fprintf(out, "== %s (%s, seed %d): %d operations attempted, %d succeeded, %d failed\n",
		res.Workload, kind, res.Seed, res.Attempted, res.Attempted-res.Failed, res.Failed)
	for _, n := range sortedNames(res.Metrics) {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-24s %14.4f %-6s [%.4f - %.4f over slices]\n", n, m.Value, m.Unit, m.Min, m.Max)
	}
	for _, note := range res.Notes {
		fmt.Fprintln(out, "note:", note)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(out, "WRONG:", p)
	}
	return res, nil
}

// printDriverLine prints the one JSON object the driver reads.
func printDriverLine(out io.Writer, res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(raw))
	return err
}

// repoRoot is the nearest directory at or above the working directory that
// holds BENCHMARK.json: the command is run from the root by run.sh and from
// its own directory by `go run -C`.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// env is the stamp every result file carries.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Toolchain  string `json:"toolchain"`
	Commit     string `json:"commit"`
}

func environment(root string) env {
	e := env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Toolchain: runtime.Version(), Commit: "unknown"}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if raw, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(raw))
	}
	return e
}
