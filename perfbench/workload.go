package main

import (
	"fmt"
	"os"
	"time"

	"streamgnn"
	"streamgnn/internal/stream"
	"streamgnn/internal/workload"
)

// spec is one fixed-work workload. The engine is configured only through
// Model, Strategy, Seed, WindowSteps, Interval and IncrementalForward.
type spec struct {
	name        string
	dataset     string
	model       string
	strategy    string
	interval    int
	incremental bool

	// A round replays streams independent streams, each generated from its
	// own seed derived from the run's: how much work a step costs depends
	// on the stream, and several streams steady the figure.
	streams int
	warmup  int     // untimed steps of each stream, inside set-up
	timed   int     // timed steps of each stream (paced ones with base-rate queries when paceHz > 0)
	paceHz  float64 // 0 = unpaced, steps run back to back

	ladderSteps int // reddit-serve: paced steps of the last stream the rate ladder runs beside
	ladders     int // ladder searches per round
	probeQ      int // unpaced workloads: base-rate queries per probe phase on the last stream's final snapshot

	ckptSteps int     // reddit-train: steps compared after the checkpoint round trip
	aucFloor  float64 // event_auc (mean over the streams) must exceed this
	incFloor  float64 // taxi-infer: incremental-forward share of timed steps must exceed this
}

// probePhases is how many base-rate query phases the unpaced workloads run
// on their final snapshot; the query metrics reduce over them.
const probePhases = 5

// engineSeed seeds every engine: the benchmark seed varies only the inputs.
const engineSeed = 1

// minSetups is how many set-ups a round makes at least; setup_s is their
// median. A round with fewer streams builds and warms each stream's engine
// more than once and measures the last. With 3 set-ups taxi-infer's setup_s
// spread 0.21 (IQR over median) across five seeds.
const minSetups = 12

var specs = []spec{
	{
		name:    "reddit-train",
		dataset: "Reddit", model: "TGCN", strategy: streamgnn.StrategyKDE, interval: 1,
		streams: 12, warmup: 30, timed: 250, ladders: 3, probeQ: 1500, ckptSteps: 5, aucFloor: 0.8,
	},
	{
		name:    "taxi-infer",
		dataset: "Taxi", model: "TGCN", strategy: streamgnn.StrategyKDE, interval: 10, incremental: true,
		streams: 4, warmup: 50, timed: 1000, ladders: 3, probeQ: 1500, aucFloor: 0.6, incFloor: 0.6,
	},
	{
		name:    "reddit-serve",
		dataset: "Reddit", model: "TGCN", strategy: streamgnn.StrategyKDE, interval: 1,
		streams: 4, warmup: 30, timed: 250, paceHz: 25, ladderSteps: 500, ladders: 5, aucFloor: 0.8,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// streamSteps is the length of each generated stream.
func (s spec) streamSteps() int { return s.warmup + s.timed + s.ladderSteps + s.ckptSteps }

// generate builds stream k of a run with the given seed.
func (s spec) generate(seed int64, k int) (*workload.Dataset, error) {
	return workload.ByName(s.dataset, workload.GenConfig{Seed: seed*1000 + int64(k), Steps: s.streamSteps()})
}

// newEngine builds an engine for the dataset, registers its queries and
// returns it with a replayer positioned before step 0.
func (s spec) newEngine(ds *workload.Dataset) (*streamgnn.Engine, *stream.Replayer, error) {
	eng, err := streamgnn.NewEngine(ds.FeatDim, streamgnn.Config{
		Model:              s.model,
		Strategy:           s.strategy,
		Seed:               engineSeed,
		WindowSteps:        ds.WindowSteps,
		Interval:           s.interval,
		IncrementalForward: s.incremental,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, q := range ds.Queries {
		q := q
		err := eng.AddQuery(streamgnn.Query{
			Name: q.Name, Anchors: q.Anchors, Delta: q.Delta, Threshold: q.Threshold,
			Labeler: func(anchor, step int) (float64, bool) { return q.Labeler(eng.Graph(), anchor, step) },
		})
		if err != nil {
			return nil, nil, err
		}
	}
	// The engine owns sliding-window expiry, so the replayer only applies
	// events — as in cmd/queryd.
	return eng, stream.NewReplayer(eng.Graph(), ds.Source(), 0), nil
}

// stepper drives one engine through the stream and records, per step, when
// its events started to be applied and when Step returned (the snapshot is
// published inside Step).
type stepper struct {
	eng    *streamgnn.Engine
	rep    *stream.Replayer
	ds     *workload.Dataset
	origin time.Time
	tr     *tracer

	attempted, failed int
	begin             []time.Duration // per step: its events started to be applied
	published         []time.Duration // per step: Step returned (snapshot published)
	nodes             []int           // per step: graph size after the step's events
	prevTele          streamgnn.Telemetry
}

// step applies the next step's events and runs Engine.Step. A Step error
// counts as a failed operation (and fails the run, see runRound); only
// running out of stream is an error.
func (s *stepper) step() error {
	t0 := time.Now()
	if !s.rep.Advance() {
		return fmt.Errorf("stream ended after %d steps", s.rep.Step()+1)
	}
	t1 := time.Now()
	s.attempted++
	err := s.eng.Step()
	t2 := time.Now()
	if err != nil {
		s.failed++
	}
	s.begin = append(s.begin, t0.Sub(s.origin))
	s.published = append(s.published, t2.Sub(s.origin))
	s.nodes = append(s.nodes, s.eng.NumNodes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "step %d: %v\n", s.rep.Step(), err)
	}
	if s.tr != nil {
		s.tr.add("stream.advance", 0, 0, t0, t1)
		id := s.tr.add("engine.step", 0, 0, t1, t2)
		// The step's phase histograms grew by exactly this step's phase
		// times; lay them out in execution order as the step's children.
		tele := s.eng.Telemetry()
		at := t1
		for _, name := range streamgnn.StepPhases() {
			d := tele.Phases[name].Sum - s.prevTele.Phases[name].Sum
			end := at.Add(time.Duration(d * float64(time.Second)))
			s.tr.add("phase."+name, id, 0, at, end)
			at = end
		}
		s.prevTele = tele
	}
	return nil
}
