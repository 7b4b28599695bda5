package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"streamgnn"
	"streamgnn/internal/tensor"
)

// roundResult is what one fixed-work round measured.
type roundResult struct {
	setupS []float64
	// per holds an end-to-end metric's value for each stream (each
	// base-rate query phase for the query metrics); see endToEndValues.
	per               map[string][]float64
	auc               []float64 // one per stream
	maxQPS            []float64 // one per ladder search
	steps             int       // timed steps over all streams
	busy              time.Duration
	use               counters  // meters over the timed steps
	stepMs, queryMs   []float64 // pooled, for the p99 the run prints
	attempted, failed int
	stepErrors        int                // Step calls that returned an error
	problems          []string           // failed correctness checks
	layer             map[string]float64 // traced rounds only
}

func (r *roundResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// addSteps counts a stepper's Step calls as operations of the round.
func (r *roundResult) addSteps(st *stepper) {
	r.attempted += st.attempted
	r.failed += st.failed
	r.stepErrors += st.failed
}

func (r *roundResult) observe(name string, v float64) {
	r.per[name] = append(r.per[name], v)
}

// latencies records the median and the tail percentile of one stream's or
// phase's samples as <prefix>_p50_ms and <prefix>_p<tail>_ms.
func (r *roundResult) latencies(prefix string, tail int, xs []float64) {
	for _, p := range []int{50, tail} {
		name := fmt.Sprintf("%s_p%d_ms", prefix, p)
		v, err := percentile(xs, float64(p)/100)
		if err != nil {
			r.problem("%s: %v", name, err)
			continue
		}
		r.observe(name, v)
	}
}

// counters is a reading of the process-wide resource meters and the
// engine's own counters, or the difference of two readings.
type counters struct {
	cpu                               time.Duration
	allocB, gcCycles, gcCPU, totalCPU float64
	tensorB                           int64
	fullFwd, incFwd, skippedRows      int64
	trainS                            float64 // train-phase seconds
	partitions                        int
	cacheHits, cacheMisses            int64
}

var metricNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCounters(eng *streamgnn.Engine) counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	samples := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	tele, stats := eng.Telemetry(), eng.Stats()
	return counters{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB: val(0), gcCycles: val(1), gcCPU: val(2), totalCPU: val(3),
		tensorB: tensor.TotalBytes(),
		fullFwd: tele.FullForwards, incFwd: tele.IncrementalForwards, skippedRows: tele.SkippedRows,
		trainS: tele.Phases[streamgnn.PhaseTrain].Sum, partitions: stats.TrainedPartitions,
		cacheHits: stats.CacheHits, cacheMisses: stats.CacheMisses,
	}
}

// add accumulates the difference after-before into c.
func (c *counters) add(after, before counters) {
	c.cpu += after.cpu - before.cpu
	c.allocB += after.allocB - before.allocB
	c.gcCycles += after.gcCycles - before.gcCycles
	c.gcCPU += after.gcCPU - before.gcCPU
	c.totalCPU += after.totalCPU - before.totalCPU
	c.tensorB += after.tensorB - before.tensorB
	c.fullFwd += after.fullFwd - before.fullFwd
	c.incFwd += after.incFwd - before.incFwd
	c.skippedRows += after.skippedRows - before.skippedRows
	c.trainS += after.trainS - before.trainS
	c.partitions += after.partitions - before.partitions
	c.cacheHits += after.cacheHits - before.cacheHits
	c.cacheMisses += after.cacheMisses - before.cacheMisses
}

// heapLive forces a GC and returns the live heap in bytes.
func heapLive() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runRound runs the workload's fixed work once: each of its streams is set
// up, warmed and measured in turn; serving is then measured on the last one.
// An error means the round could not run to its end; failed checks are
// collected in problems.
func runRound(sp spec, seed int64, traced bool, outDir string) (*roundResult, error) {
	res := &roundResult{per: map[string][]float64{}}
	origin := time.Now()
	var tr *tracer
	var profiles []string // one CPU profile per stream's timed segment
	if traced {
		tr = newTracer(origin)
		tensor.EnableMeter(true)
		defer tensor.EnableMeter(false)
		if err := os.MkdirAll(filepath.Join(outDir, "profiles"), 0o755); err != nil {
			return nil, err
		}
	}
	qrng := rand.New(rand.NewSource(seed*7919 + 17))
	setupsPer := (minSetups + sp.streams - 1) / sp.streams

	var st *stepper
	var srv *server
	var nodes float64       // graph sizes summed over the timed steps
	var base []phaseStats   // base-rate query phases
	var lastStart time.Time // schedule origin of the last stream
	var sc serveCounters    // over the base-rate phases
	for k := 0; k < sp.streams; k++ {
		// Stream generation is input preparation, outside set-up and timing.
		ds, err := sp.generate(seed, k)
		if err != nil {
			return nil, err
		}
		// Set-up: engine construction, query registration and warm-up steps.
		for i := 0; i < setupsPer; i++ {
			t0 := time.Now()
			eng, rep, err := sp.newEngine(ds)
			if err != nil {
				return nil, err
			}
			st = &stepper{eng: eng, rep: rep, origin: origin, ds: ds}
			for w := 0; w < sp.warmup; w++ {
				if err := st.step(); err != nil {
					return nil, err
				}
			}
			res.setupS = append(res.setupS, time.Since(t0).Seconds())
			if i < setupsPer-1 {
				res.addSteps(st)
			}
		}
		eng := st.eng
		runtime.GC()
		runtime.GC()
		if srv != nil {
			srv.batcher.Close()
		}
		srv = newServer(eng, origin)

		st.tr = tr
		if tr != nil {
			st.prevTele = eng.Telemetry()
		}
		var stopProfile func() error
		if traced {
			path := filepath.Join(outDir, "profiles", fmt.Sprintf("%s-seed%d-stream%d.pprof", sp.name, seed, k))
			if stopProfile, err = startProfile(path); err != nil {
				return nil, err
			}
			profiles = append(profiles, path)
		}
		before := readCounters(eng)
		start := time.Now()
		var ph *queryPhase
		var sub int
		if sp.paceHz == 0 {
			for i := 0; i < sp.timed; i++ {
				if err := st.step(); err != nil {
					return nil, err
				}
			}
		} else {
			// Paced stream with base-rate queries beside it, both on one
			// schedule.
			start = start.Add(10 * time.Millisecond)
			n := int(baseRate * float64(sp.timed) / sp.paceHz)
			ph = &queryPhase{reqs: makeRequests(qrng, n, eng.NumNodes()), recs: make([]qrec, n), sample: true}
			var err error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				err = pacedSteps(st, start, sp.paceHz, 0, sp.timed)
			}()
			sub = srv.runOpen(ph, start, baseRate)
			wg.Wait()
			if err != nil {
				return nil, err
			}
		}
		after := readCounters(eng)
		if stopProfile != nil {
			if err := stopProfile(); err != nil {
				return nil, err
			}
		}
		var use counters
		use.add(after, before)
		res.use.add(after, before)
		st.tr = nil
		lastStart = start

		first, end := sp.warmup, sp.warmup+sp.timed
		steps := float64(sp.timed)
		res.steps += sp.timed
		res.observe("steps_per_s", steps/(st.published[end-1]-start.Sub(origin)).Seconds())
		res.observe("cpu_ms_per_step", ms(use.cpu)/steps)
		res.observe("alloc_mb_per_step", use.allocB/1e6/steps)
		var stepMs []float64
		for i := first; i < end; i++ {
			d := st.published[i] - st.begin[i]
			stepMs = append(stepMs, ms(d))
			res.busy += d
			nodes += float64(st.nodes[i])
		}
		res.latencies("step", 90, stepMs)
		res.stepMs = append(res.stepMs, stepMs...)
		if ph != nil {
			fresh, err := freshness(paced(start.Sub(origin), sp.paceHz, sp.timed), st.published[first:end])
			if err != nil {
				return nil, err
			}
			res.latencies("fresh", 90, fresh)
			base = append(base, servedPhase(res, tr, ph, sub, st.published))
			srv.cur.Store(nil) // release the sampled snapshots before measuring the heap
			sc.add(srv)
		}
		res.observe("heap_live_mb", heapLive()/1e6)
		if k < sp.streams-1 {
			res.auc = append(res.auc, checkOutcomes(res, st.ds, eng))
			res.addSteps(st)
		}
	}
	eng := st.eng
	defer srv.batcher.Close()

	// Serving on the last stream: base-rate queries on the final snapshot
	// for the unpaced workloads, then the rate ladder (beside further paced
	// steps on reddit-serve).
	for i := 0; sp.paceHz == 0 && i < probePhases; i++ {
		ph := &queryPhase{reqs: makeRequests(qrng, sp.probeQ, eng.NumNodes()), recs: make([]qrec, sp.probeQ), sample: true}
		sub := srv.runOpen(ph, time.Now().Add(time.Millisecond), baseRate)
		base = append(base, servedPhase(res, tr, ph, sub, st.published))
	}
	if sp.paceHz == 0 {
		sc.add(srv)
	}
	srv.cur.Store(nil)
	lad := &ladder{s: srv, pool: makeRequests(qrng, 1<<16, eng.NumNodes())}
	var ladderErr error
	var wg sync.WaitGroup
	if sp.ladderSteps > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ladderErr = pacedSteps(st, lastStart, sp.paceHz, sp.timed, sp.ladderSteps)
		}()
	}
	for i := 0; i < sp.ladders; i++ {
		q, err := lad.search()
		if err != nil {
			res.problem("%v (rungs %v)", err, lad.rungs)
			continue
		}
		res.maxQPS = append(res.maxQPS, q)
	}
	wg.Wait()
	if ladderErr != nil {
		return nil, ladderErr
	}
	fmt.Fprintf(os.Stderr, "%s ladder rungs (rate:p99:pass): %v\n", sp.name, lad.rungs)
	res.attempted += lad.attempted
	res.failed += lad.failed

	// Correctness of the last stream, up to where the workload stepped it.
	res.auc = append(res.auc, checkOutcomes(res, st.ds, eng))
	fmt.Fprintf(os.Stderr, "%s event AUC per stream: %.4f\n", sp.name, res.auc)
	// The model must learn through drift: event_auc, the mean over the
	// streams, must clear the workload's floor.
	if auc := mean(res.auc); !(auc > sp.aucFloor) {
		res.problem("event AUC %.4f (mean over %d streams) is not above the floor %.2f", auc, len(res.auc), sp.aucFloor)
	}
	if sp.incremental {
		checkIncremental(res, sp, res.use, eng)
	}
	var ck ckptTimes
	if sp.ckptSteps > 0 || traced {
		var err error
		if ck, err = checkpointRoundTrip(res, sp, st, tr); err != nil {
			return nil, err
		}
	}
	res.addSteps(st)
	// Every Step must return nil; an error is counted as a failed
	// operation and fails the run.
	if res.stepErrors > 0 {
		res.problem("%d Step calls returned an error", res.stepErrors)
	}

	if traced {
		mod, err := moduleCPU(profiles)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl.gz", sp.name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s, CPU profiles to %v\n", len(tr.spans), path, profiles)
		res.layer = layerMetrics(layerInputs{
			steps: float64(res.steps), nodes: nodes, use: res.use,
			spans: reduceSpans(tr.spans), cpuMs: mod, base: base, serve: sc, ckpt: ck,
		})
	}
	return res, nil
}

// startProfile starts a CPU profile into path and returns the function that
// stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// servedPhase checks a base-rate query phase, records its spans when
// tracing, and returns its summary.
func servedPhase(res *roundResult, tr *tracer, ph *queryPhase, submitted int, published []time.Duration) phaseStats {
	checkServing(res, ph, submitted, published)
	traceQueries(tr, ph, submitted)
	ps := summarise(ph, submitted)
	res.latencies("query", 75, ps.latMs)
	res.queryMs = append(res.queryMs, ps.latMs...)
	res.attempted += submitted
	res.failed += ps.failed
	return ps
}

// pacedSteps runs steps [from, from+n) of a paced schedule, step i due at
// start + i/hz (late steps run at once: the schedule never slows down).
func pacedSteps(st *stepper, start time.Time, hz float64, from, n int) error {
	for i := from; i < from+n; i++ {
		if d := time.Until(start.Add(time.Duration(float64(i) * float64(time.Second) / hz))); d > 0 {
			time.Sleep(d)
		}
		if err := st.step(); err != nil {
			return err
		}
	}
	return nil
}
