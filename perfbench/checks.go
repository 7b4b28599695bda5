package main

import (
	"bytes"
	"errors"
	"math"
	"time"

	"streamgnn"
	"streamgnn/internal/query"
	"streamgnn/internal/workload"
)

// checkOutcomes verifies the resolved predictions of the engine's stream so
// far against the dataset's ground truth and an independent AUC, and
// returns the event AUC.
func checkOutcomes(res *roundResult, ds *workload.Dataset, eng *streamgnn.Engine) float64 {
	steps, g := eng.CurrentStep(), eng.Graph()
	byName := make(map[string]*query.EventQuery, len(ds.Queries))
	want := 0
	for _, q := range ds.Queries {
		byName[q.Name] = q
		// A prediction made at step t resolves at step t+Delta, when the
		// labeler has a truth for it.
		for t := 0; t+q.Delta < steps; t++ {
			for _, a := range q.Anchors {
				if _, ok := q.Labeler(g, a, t+q.Delta); ok {
					want++
				}
			}
		}
	}
	outs := eng.Outcomes()
	if len(outs) != want {
		res.problem("%d resolved outcomes after %d steps, the dataset's anchors imply %d", len(outs), steps, want)
	}
	scores := make([]float64, len(outs))
	events := make([]bool, len(outs))
	bad := 0
	for i, o := range outs {
		scores[i], events[i] = o.Score, o.Event
		q := byName[o.Query]
		if q == nil {
			res.problem("outcome for unknown query %q", o.Query)
			return 0
		}
		truth, ok := q.Labeler(g, o.Anchor, o.Step)
		// Outcome.Event is documented as Truth > threshold.
		if !ok || math.Float64bits(truth) != math.Float64bits(o.Truth) || o.Event != (o.Truth > q.Threshold) {
			if bad == 0 {
				res.problem("outcome %+v disagrees with the labeler (truth %v, ok %v, threshold %v)", o, truth, ok, q.Threshold)
			}
			bad++
		}
	}
	if bad > 1 {
		res.problem("%d outcomes disagree with the labeler in all", bad)
	}
	auc, err := rankAUC(scores, events)
	if err != nil {
		res.problem("event AUC: %v", err)
		return 0
	}
	if got := eng.Metrics().EventAUC; math.Abs(got-auc) > 1e-12 {
		res.problem("Metrics().EventAUC = %v, rank AUC of the outcomes = %v", got, auc)
	}
	return auc
}

// checkIncremental verifies the incremental-forward bookkeeping of
// taxi-infer: every step ran exactly one forward, the timed segment still
// mostly took the incremental path, and the served embedding matrix has one
// finite row per node.
func checkIncremental(res *roundResult, sp spec, use counters, eng *streamgnn.Engine) {
	tele := eng.Telemetry()
	if tele.FullForwards+tele.IncrementalForwards != tele.Steps {
		res.problem("%d full + %d incremental forwards over %d steps", tele.FullForwards, tele.IncrementalForwards, tele.Steps)
	}
	if share := float64(use.incFwd) / float64(sp.streams*sp.timed); !(share > sp.incFloor) {
		res.problem("incremental-forward share %.3f of timed steps is not above %.2f", share, sp.incFloor)
	}
	emb := eng.QuerySnapshot().Emb()
	if emb.Rows != eng.NumNodes() {
		res.problem("embedding matrix has %d rows for %d nodes", emb.Rows, eng.NumNodes())
	}
	for i, v := range emb.Data[:emb.Rows*emb.Cols] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("embedding row %d is not finite", i/emb.Cols)
			return
		}
	}
}

// checkServing verifies a query phase: every submitted query was answered OK
// with a finite score, no answer came from a snapshot older than the last
// one published before the query was due, and sampled answers recomputed
// one at a time from the snapshot that served them are bit-identical.
// published holds the publish time of each engine step.
func checkServing(res *roundResult, ph *queryPhase, submitted int, published []time.Duration) {
	due := make([]time.Duration, submitted)
	for i := range due {
		due[i] = ph.recs[i].due
	}
	need := lastPublishedBefore(published, due)
	notOK, stale, mismatched := 0, 0, 0
	for i := 0; i < submitted; i++ {
		r := &ph.recs[i]
		if !r.ok {
			notOK++
			continue
		}
		if r.snapStep < need[i] {
			if stale == 0 {
				res.problem("query %d due at %v was answered from step %d, but step %d was published before it was due", i, r.due, r.snapStep, need[i])
			}
			stale++
		}
		if r.snap == nil {
			continue
		}
		req := ph.reqs[i]
		var density []float64
		if req.Kind == query.KindDensity {
			density, _ = r.snap.Density() // an error leaves density nil and the answer not OK
		}
		a := r.snap.Answer([]query.Request{req}, density)
		if len(a) != 1 || !a[0].OK || math.Float64bits(a[0].Score) != math.Float64bits(r.score) {
			if mismatched == 0 {
				res.problem("query %d (%+v) answered %v in its batch, %+v alone from the same snapshot", i, req, r.score, a)
			}
			mismatched++
		}
	}
	if notOK > 0 {
		res.problem("%d of %d queries were not answered OK with a finite score", notOK, submitted)
	}
	if stale > 1 {
		res.problem("%d queries were answered from a stale snapshot", stale)
	}
	if mismatched > 1 {
		res.problem("%d sampled answers differ when recomputed alone", mismatched)
	}
}

// ckptTimes is what the checkpoint round trip cost.
type ckptTimes struct {
	saveMs, loadMs, mb float64
}

// checkpointRoundTrip saves the engine's state, rebuilds a fresh engine by
// replaying the stream to the same step and loads the checkpoint into it.
// With sp.ckptSteps > 0 both engines then run that many more steps, whose
// embeddings and outcomes must be bit-identical.
func checkpointRoundTrip(res *roundResult, sp spec, st *stepper, tr *tracer) (ckptTimes, error) {
	var ck ckptTimes
	var buf bytes.Buffer
	t0 := time.Now()
	if err := st.eng.SaveCheckpoint(&buf); err != nil {
		return ck, err
	}
	t1 := time.Now()
	tr.add("ckpt.save", 0, 0, t0, t1)
	fresh, rep, err := sp.newEngine(st.ds)
	if err != nil {
		return ck, err
	}
	for i := 0; i < st.eng.CurrentStep(); i++ {
		if !rep.Advance() {
			return ck, errStreamShort
		}
	}
	t2 := time.Now()
	if err := fresh.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		return ck, err
	}
	t3 := time.Now()
	tr.add("ckpt.load", 0, 0, t2, t3)
	ck = ckptTimes{saveMs: ms(t1.Sub(t0)), loadMs: ms(t3.Sub(t2)), mb: float64(buf.Len()) / 1e6}
	if sp.ckptSteps == 0 {
		return ck, nil
	}

	other := &stepper{eng: fresh, rep: rep, ds: st.ds, origin: st.origin}
	defer res.addSteps(other)
	n0, m0 := len(st.eng.Outcomes()), len(fresh.Outcomes())
	for k := 0; k < sp.ckptSteps; k++ {
		if err := st.step(); err != nil {
			return ck, err
		}
		if err := other.step(); err != nil {
			return ck, err
		}
		a, b := st.eng.QuerySnapshot().Emb(), fresh.QuerySnapshot().Emb()
		if !sameBits(a.Data[:a.Rows*a.Cols], b.Data[:b.Rows*b.Cols]) || a.Rows != b.Rows {
			res.problem("after the checkpoint round trip, step %d embeddings differ from the uninterrupted engine's", st.eng.CurrentStep()-1)
			return ck, nil
		}
	}
	oa, ob := st.eng.Outcomes()[n0:], fresh.Outcomes()[m0:]
	if len(oa) != len(ob) {
		res.problem("after the checkpoint round trip, %d outcomes resolved against %d uninterrupted", len(ob), len(oa))
		return ck, nil
	}
	for i := range oa {
		x, y := oa[i], ob[i]
		if x.Query != y.Query || x.Anchor != y.Anchor || x.Step != y.Step || x.Event != y.Event ||
			math.Float64bits(x.Score) != math.Float64bits(y.Score) || math.Float64bits(x.Truth) != math.Float64bits(y.Truth) {
			res.problem("after the checkpoint round trip, outcome %+v differs from the uninterrupted %+v", y, x)
			return ck, nil
		}
	}
	return ck, nil
}

var errStreamShort = errors.New("stream is shorter than the checkpoint's step")

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
