package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// resultFile is one complete set of runs with the environment it ran in.
type resultFile struct {
	Env  env         `json:"env"`
	Runs []runResult `json:"runs"`
}

// benchSpec is the part of BENCHMARK.json the command reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func (f resultFile) untraced(workload string) *runResult {
	for i := range f.Runs {
		if f.Runs[i].Workload == workload && !f.Runs[i].Trace {
			return &f.Runs[i]
		}
	}
	return nil
}

// spread is a metric's min-max range over its run's slices as a share of
// its value: the run's own estimate of its noise.
func (m metric) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Max - m.Min) / m.Value
}

// verdict judges b against a for one metric. A difference counts as a
// regression only when it exceeds both the bound and the noise either side
// measured; a metric whose noise exceeds the bound is unresolved, because
// the bound cannot be checked on it.
func verdict(spec metricSpec, a, b metric) (worse float64, word string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if spec.Better == "higher" {
			worse = -worse
		}
	}
	noise := max(a.spread(), b.spread())
	switch {
	case worse > spec.Bound && worse > noise:
		return worse, "REGRESSION"
	case noise > spec.Bound:
		return worse, "unresolved"
	default:
		return worse, "within bound"
	}
}

// compareFiles prints, for every end-to-end metric on every workload, how b
// differs from a and whether that is within the bound BENCHMARK.json fixes.
func compareFiles(out io.Writer, benchPath, pathA, pathB string) (regressed bool, err error) {
	var bench benchSpec
	var a, b resultFile
	if err := errors.Join(readJSON(benchPath, &bench), readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		return false, err
	}
	fmt.Fprintf(out, "a: commit %s, %s, GOMAXPROCS %d of %d CPUs\n", a.Env.Commit, a.Env.Toolchain, a.Env.GOMAXPROCS, a.Env.NumCPU)
	fmt.Fprintf(out, "b: commit %s, %s, GOMAXPROCS %d of %d CPUs\n", b.Env.Commit, b.Env.Toolchain, b.Env.GOMAXPROCS, b.Env.NumCPU)
	for _, w := range bench.Workloads {
		ra, rb := a.untraced(w.Name), b.untraced(w.Name)
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s is missing from a result file", w.Name)
		}
		fmt.Fprintf(out, "== %s (seed %d vs %d)\n", w.Name, ra.Seed, rb.Seed)
		for _, spec := range bench.EndToEnd {
			ma, mb := ra.Metrics[spec.Name], rb.Metrics[spec.Name]
			worse, word := verdict(spec, ma, mb)
			regressed = regressed || word == "REGRESSION"
			fmt.Fprintf(out, "%-16s %12.4f -> %12.4f %-5s %+7.1f%% worse, bound %4.1f%%, slice spread %4.1f%% / %4.1f%%  %s\n",
				spec.Name, ma.Value, mb.Value, spec.Unit, 100*worse, 100*spec.Bound, 100*ma.spread(), 100*mb.spread(), word)
		}
	}
	return regressed, nil
}
