package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// child runs one workload in its own process (this binary) and returns the
// result its last output line holds. The child's output is passed through.
func child(name string, seed int64, seconds, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(out.Bytes())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
		}
		return result{}, fmt.Errorf("%s seed %d: last output line is not a result: %w", name, seed, err)
	}
	return res, nil
}

// runAll runs every workload, each in its own process.
func runAll(seed int64, seconds, trace int) error {
	failed := false
	for _, sp := range specs {
		res, err := child(sp.name, seed, seconds, trace)
		if err != nil {
			return err
		}
		failed = failed || !res.Correct
	}
	if failed {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json repeat mode reads.
type benchSpec struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// repeatRuns runs one workload n times per set, each run in its own process
// with its own seed, and prints for each metric the median, quartiles and
// spread ((q3-q1)/median) of every set, whether the spread is inside the
// metric's bound, and — with two or more sets — whether each later set's
// median is no worse than the first's by more than the bound.
func repeatRuns(name string, seed int64, seconds, trace, n, sets int, specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var bs benchSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	defs := bs.EndToEnd
	if trace == 1 {
		defs = bs.PerLayer
	}
	type set struct {
		values            map[string][]float64
		attempted, failed int
	}
	all := make([]set, sets)
	bad := false
	for s := range all {
		all[s].values = map[string][]float64{}
		for i := 0; i < n; i++ {
			rs := seed + int64(s*n+i)
			res, err := child(name, rs, seconds, trace)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: a correctness check failed", name, rs)
			}
			all[s].attempted += res.Attempted
			all[s].failed += res.Failed
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					return fmt.Errorf("%s seed %d: metric %s is %+v, %s declares unit %q", name, rs, d.Name, m, specPath, d.Unit)
				}
				all[s].values[d.Name] = append(all[s].values[d.Name], m.Value)
			}
		}
	}

	fmt.Printf("\n%s: %d set(s) of %d runs, seeds from %d\n", name, sets, n, seed)
	fmt.Printf("%-32s %-9s %4s %12s %12s %12s %7s %6s  %s\n", "metric", "unit", "set", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, d := range defs {
		first := median(all[0].values[d.Name])
		for s := range all {
			xs := all[s].values[d.Name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := ratio(q3-q1, math.Abs(med))
			verdict := "-"
			if d.Bound > 0 {
				verdict = "ok"
				if spread > d.Bound {
					verdict = "SPREAD>BOUND"
					bad = true
				} else if spread > d.Bound/3 {
					verdict = "ok (spread>bound/3)"
				}
				if s > 0 {
					worse := (med - first) / math.Abs(first)
					if d.Better == "higher" {
						worse = -worse
					}
					if worse > d.Bound {
						verdict += fmt.Sprintf(" DRIFT %.1f%%>BOUND", 100*worse)
						bad = true
					}
				}
			}
			fmt.Printf("%-32s %-9s %4d %12.6g %12.6g %12.6g %7.4f %6.3g  %s\n", d.Name, d.Unit, s+1, med, q1, q3, spread, d.Bound, verdict)
		}
	}
	shares := make([]string, len(all))
	for s := range all {
		shares[s] = fmt.Sprintf("%d/%d", all[s].failed, all[s].attempted)
		if all[s].failed*all[0].attempted != all[0].failed*all[s].attempted {
			bad = true
		}
	}
	fmt.Printf("failed/attempted per set: %s\n", strings.Join(shares, ", "))
	if bad {
		return fmt.Errorf("%s: the runs do not agree within the bounds", name)
	}
	return nil
}
