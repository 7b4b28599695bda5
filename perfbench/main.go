// Command perfbench is the repository's benchmark: three fixed-work
// workloads driven through the engine's public API, measuring step
// throughput, resource use and live query serving end to end, and — in a
// separate traced run — layer by layer. See README.md.
//
//	bash perfbench/run.sh --workload reddit-train --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh --workload taxi-infer --repeat 10 --sets 2
//
// A single run prints its metrics, then as its last line one JSON object
// with the keys correct, attempted, failed and metrics. It exits 1 when a
// correctness check fails and 2 when the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"steps_per_s", "steps/s"}, {"step_p50_ms", "ms"},
	{"cpu_ms_per_step", "ms"}, {"alloc_mb_per_step", "MB"}, {"heap_live_mb", "MB"}, {"event_auc", "AUC"},
	{"query_p50_ms", "ms"}, {"query_p75_ms", "ms"}, {"query_max_qps", "queries/s"},
}

// freshP50 is reported by paced workloads only: on an unpaced stream a step
// is due when the previous one is published, so its freshness is its step
// time.
var freshP50 = metricDef{"fresh_p50_ms", "ms"}

// perLayer are the metrics a traced run reports, in print order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"ingest.ms_per_step", "ms"},
		{"phase.expire_ms", "ms"}, {"phase.forward_ms", "ms"}, {"phase.reveal_ms", "ms"},
		{"phase.predict_ms", "ms"}, {"phase.train_ms", "ms"}, {"phase.publish_ms", "ms"},
		{"dgnn.full_forward_share", "ratio"}, {"dgnn.recomputed_rows_per_step", "rows"},
		{"core.ms_per_partition", "ms"}, {"graph.partition_cache_hit_rate", "ratio"},
		{"tensor.mb_per_step", "MB"}, {"gc.cycles_per_step", "count"}, {"gc.cpu_share", "ratio"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m + "_ms_per_step", "ms"})
	}
	return append(defs,
		metricDef{"serve.batch_size_mean", "queries"}, metricDef{"serve.wait_p50_ms", "ms"},
		metricDef{"query.answer_us_per_query", "us"}, metricDef{"kde.density_ms", "ms"},
		metricDef{"serve.generator_late_ms", "ms"},
		metricDef{"ckpt.save_ms", "ms"}, metricDef{"ckpt.load_ms", "ms"}, metricDef{"ckpt.mb", "MB"},
		metricDef{"trace.overhead_pct", "%"})
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: reddit-train, taxi-infer, reddit-serve, or all")
	seed := flag.Int64("seed", 1, "input seed: the stream and the query load are generated from it")
	seconds := flag.Int("seconds", 20, "measure whole rounds of the workload's fixed work for about this long (at least one round)")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics (an untraced and a traced round)")
	outDir := flag.String("out", ".bench_build", "directory for spans and CPU profiles")
	repeat := flag.Int("repeat", 0, "run the workload this many times, each in its own process with its own seed, and report medians, quartiles and spreads")
	sets := flag.Int("sets", 1, "with -repeat: number of sets of runs, compared median to median")
	specPath := flag.String("spec", "BENCHMARK.json", "with -repeat: file holding the metrics' bounds")
	flag.Parse()

	// Pin the scheduler to the machine: the load generator and the engine
	// share nproc threads.
	runtime.GOMAXPROCS(runtime.NumCPU())
	var err error
	switch {
	case *repeat > 0:
		err = repeatRuns(*name, *seed, *seconds, *trace, *repeat, *sets, *specPath)
	case *name == "all":
		err = runAll(*seed, *seconds, *trace)
	default:
		var ok bool
		ok, err = runOne(*name, *seed, *seconds, *trace == 1, *outDir)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// runOne runs one workload in this process and prints its result. It
// reports whether every correctness check passed.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) (bool, error) {
	sp, err := specByName(name)
	if err != nil {
		return false, err
	}
	fmt.Printf("workload %s seed %d: nproc=%d GOMAXPROCS=%d %s\n", name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var rounds []*roundResult
	if traced {
		// An untraced round gives the rate the traced one is compared with.
		for _, tr := range []bool{false, true} {
			r, err := runRound(sp, seed, tr, outDir)
			if err != nil {
				return false, err
			}
			rounds = append(rounds, r)
		}
	} else {
		began := time.Now()
		for {
			t0 := time.Now()
			r, err := runRound(sp, seed, false, outDir)
			if err != nil {
				return false, err
			}
			rounds = append(rounds, r)
			if time.Since(began)+time.Since(t0) > time.Duration(seconds)*time.Second {
				break
			}
		}
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for i, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "CHECK FAILED (round %d): %s\n", i+1, p)
			res.Correct = false
		}
	}
	var defs []metricDef
	var values map[string]float64
	if traced {
		defs = perLayer
		values = rounds[1].layer
		untraced, tracedRate := busyRate(rounds[0]), busyRate(rounds[1])
		values["trace.overhead_pct"] = 100 * (untraced/tracedRate - 1)
	} else {
		defs = endToEnd
		tails := []string{"step_p90_ms"}
		if sp.paceHz > 0 {
			defs = append(defs[:len(defs):len(defs)], freshP50)
			tails = append(tails, "fresh_p90_ms")
		}
		values = endToEndValues(rounds)
		// Tails for the reader, outside the result: on a shared VM they
		// spread across runs beyond any bound a regression gate could use.
		for _, k := range tails {
			fmt.Printf("  (%s: %.4g)\n", k, values[k])
		}
		for _, pc := range []struct {
			name string
			xs   []float64
		}{{"step_p99_ms", rounds[0].stepMs}, {"query_p99_ms", rounds[0].queryMs}} {
			if v, err := percentile(pc.xs, 0.99); err == nil {
				fmt.Printf("  (pooled %s of round 1: %.4g over %d samples)\n", pc.name, v, len(pc.xs))
			}
		}
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "CHECK FAILED: metric %s has no value\n", d.name)
			res.Correct = false
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("  rounds %d, operations attempted %d, failed %d\n", len(rounds), res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// busyRate is steps per second of ingest+Step time, the step rate with
// pacing taken out.
func busyRate(r *roundResult) float64 { return float64(r.steps) / r.busy.Seconds() }

// endToEndValues reduces the rounds to the end-to-end metrics. A timing or
// rate is the quieter quartile of its per-stream (per-phase, per-search)
// values over all rounds; memory and allocation are medians, setup_s the
// median of every set-up, event_auc the median over rounds of the mean over
// streams.
func endToEndValues(rounds []*roundResult) map[string]float64 {
	all := map[string][]float64{}
	var aucs []float64
	for _, r := range rounds {
		for k, xs := range r.per {
			all[k] = append(all[k], xs...)
		}
		all["setup_s"] = append(all["setup_s"], r.setupS...)
		all["query_max_qps"] = append(all["query_max_qps"], r.maxQPS...)
		aucs = append(aucs, mean(r.auc))
	}
	out := map[string]float64{"event_auc": median(aucs)}
	for k, xs := range all {
		switch {
		case len(xs) == 0:
		case k == "setup_s" || k == "heap_live_mb" || k == "alloc_mb_per_step":
			out[k] = median(xs)
		default:
			out[k] = quietQuartile(xs, k == "steps_per_s" || k == "query_max_qps")
		}
	}
	return out
}
