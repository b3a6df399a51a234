package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// benchmarkFile is BENCHMARK.json, as far as this program reads it.
type benchmarkFile struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []namedEntry `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type namedEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runAgree is the evidence that the benchmark repeats: two sets of k full
// runs per workload, each run a fresh process with its own seed, workloads
// alternating so drift lands on all of them alike. Per workload × metric
// it prints both medians, each set's quartile spread as a share of its
// median, how much worse the second median is than the first, the bound,
// and a verdict — the same three tests the driver applies.
func runAgree(root string, k, seconds int) error {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if k < 2 {
		return fmt.Errorf("--agree needs at least 2 runs per set, got %d", k)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][set][metric]
	values := map[string]*[2]map[string][]float64{}
	for _, w := range allWorkloads {
		values[w.name] = &[2]map[string][]float64{{}, {}}
	}
	for set := 0; set < 2; set++ {
		for i := 0; i < k; i++ {
			for _, w := range allWorkloads {
				seed := set*k + i + 1
				out, err := runChild(exe, root, w.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if !out.Correct || out.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, seed, out.Failed, out.Attempted)
				}
				for name, m := range out.Metrics {
					values[w.name][set][name] = append(values[w.name][set][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "agree: set %d run %d/%d %s done\n", set+1, i+1, k, w.name)
			}
		}
	}
	fmt.Printf("%-8s %-22s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "B vs A", "bound", "verdict")
	failed := 0
	for _, w := range allWorkloads {
		for _, spec := range bf.EndToEnd {
			a, b := values[w.name][0][spec.Name], values[w.name][1][spec.Name]
			if len(a) != k || len(b) != k {
				return fmt.Errorf("%s: metric %s reported %d and %d times in %d runs", w.name, spec.Name, len(a), len(b), k)
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if spec.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			spread := max(sa, sb)
			if spec.Name == "setup_s" {
				spread = 0 // the driver bounds its median only
			}
			verdict := "PASS"
			switch {
			case worse > spec.Bound:
				verdict = "FAIL median moved"
				failed++
			case spread > spec.Bound:
				verdict = "FAIL spread"
				failed++
			case spread > spec.Bound/3:
				verdict = "PASS (spread above a third of the bound)"
			}
			fmt.Printf("%-8s %-22s %14.6g %14.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.name, spec.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*spec.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload × metric pairs outside their bounds", failed)
	}
	return nil
}

// runChild runs one full untraced run in a fresh process, as the driver
// does, and parses the result line.
func runChild(exe, root, workload string, seed, seconds int) (*output, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, err
	}
	last := bytes.TrimSpace(stdout)
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var out output
	if err := json.Unmarshal(last, &out); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &out, nil
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles Python's
// statistics.quantiles(v, n=4) gives — the "exclusive" method, which is
// what the driver computes.
func quartileSpread(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	q := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}
