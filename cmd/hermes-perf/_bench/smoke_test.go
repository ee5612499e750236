package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/vec"
)

func readBench(t *testing.T) benchSpec {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	var bench benchSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	return bench
}

// TestQuickPrintsEveryMetric runs all four workloads in -quick mode, traced
// and untraced, and asserts that every workload and metric BENCHMARK.json
// names is printed with its unit and lands in the result file.
func TestQuickPrintsEveryMetric(t *testing.T) {
	bench := readBench(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(bench.Workloads), len(workloads))
	}
	result := filepath.Join(t.TempDir(), "result.json")
	var out bytes.Buffer
	if code := realMain([]string{"-quick", "-seed", "3", "-out", result}, &out, nil); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	sections := strings.Split(out.String(), "== ")[1:]
	printed := func(workload, kind string) string {
		for _, s := range sections {
			if strings.HasPrefix(s, workload+" ("+kind) {
				return s
			}
		}
		t.Errorf("no %q section for workload %s", kind, workload)
		return ""
	}
	for _, w := range bench.Workloads {
		for kind, specs := range map[string][]metricSpec{"end to end": bench.EndToEnd, "per layer": bench.PerLayer} {
			section := printed(w.Name, kind)
			for _, spec := range specs {
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(spec.Name) + `\s+-?[0-9.]+ ` + regexp.QuoteMeta(spec.Unit) + `\s`)
				if !line.MatchString(section) {
					t.Errorf("%s: metric %s is not printed with unit %s", w.Name, spec.Name, spec.Unit)
				}
			}
		}
	}

	var file resultFile
	if err := readJSON(result, &file); err != nil {
		t.Fatal(err)
	}
	if file.Env.GOMAXPROCS == 0 || file.Env.NumCPU == 0 || file.Env.Toolchain == "" || file.Env.Commit == "" {
		t.Errorf("result file's environment stamp is incomplete: %+v", file.Env)
	}
	for _, run := range file.Runs {
		specs := bench.EndToEnd
		if run.Trace {
			specs = bench.PerLayer
		}
		if run.Seed != 3 || !run.Correct || run.Attempted == 0 || run.Failed != 0 || len(run.Metrics) != len(specs) {
			t.Errorf("%s trace=%v: seed %d, correct %v, %d attempted, %d failed, %d metrics (want %d)",
				run.Workload, run.Trace, run.Seed, run.Correct, run.Attempted, run.Failed, len(run.Metrics), len(specs))
		}
		if !run.Trace {
			for _, spec := range specs {
				// On a busy machine even the lowest fixed rate of the tiny
				// open loop can miss its limit, and max_rate_qps is then 0.
				if run.Metrics[spec.Name].Value <= 0 && spec.Name != "max_rate_qps" {
					t.Errorf("%s: end-to-end metric %s = %v, want positive", run.Workload, spec.Name, run.Metrics[spec.Name].Value)
				}
			}
		}
	}

	// The same file against itself has no regression, whatever its noise.
	out.Reset()
	if code := realMain([]string{"-compare", result, result}, &out, nil); code != 0 {
		t.Errorf("-compare of a file with itself exits %d\n%s", code, out.String())
	}
}

// TestDriverLine checks the last line of a single-workload run against the
// driver's contract: exactly four keys, and exactly the metrics of the mode.
func TestDriverLine(t *testing.T) {
	bench := readBench(t)
	for trace, specs := range [][]metricSpec{bench.EndToEnd, bench.PerLayer} {
		var out bytes.Buffer
		args := []string{"--workload", "wire_bound", "--seed", "5", "--seconds", "1", "--trace", fmt.Sprint(trace), "-quick"}
		if code := realMain(args, &out, nil); code != 0 {
			t.Fatalf("exit code %d\n%s", code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
			t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", line)
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(specs) {
			t.Errorf("trace %d: %d metrics on the last line, want %d", trace, len(metrics), len(specs))
		}
		for _, spec := range specs {
			if m, ok := metrics[spec.Name]; !ok || m.Value == nil || m.Unit != spec.Unit {
				t.Errorf("trace %d: metric %s = %+v, want a value in %s", trace, spec.Name, m, spec.Unit)
			}
		}
	}
}

// TestWrongAnswerExitsNonZero plants a wrong answer in what the correctness
// gate sees: the two best neighbours swapped.
func TestWrongAnswerExitsNonZero(t *testing.T) {
	swap := func(ns []vec.Neighbor) {
		if len(ns) > 1 {
			ns[0], ns[1] = ns[1], ns[0]
		}
	}
	var out bytes.Buffer
	code := realMain([]string{"-workload", "scan_bound", "-quick"}, &out, swap)
	if code != 1 {
		t.Errorf("exit code %d with a wrong answer planted, want 1", code)
	}
	if !strings.Contains(out.String(), "WRONG:") || !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("the wrong answer is not reported:\n%s", out.String())
	}
}
