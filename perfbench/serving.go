package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamgnn"
	"streamgnn/internal/query"
	"streamgnn/internal/serve"
)

// Serving load: single predictive queries submitted open loop to a
// serve.Batcher whose answerer reads Engine.QuerySnapshot, wired as
// cmd/queryd wires its /query endpoint (default batch size 64, 2 ms wait).
const (
	baseRate     = 2000.0 // queries/s offered alongside the stream
	maxInFlight  = 20000  // a rung with more unanswered queries is backlogged
	rungSeconds  = 0.5    // a ladder rung offers max(minRung, rate·rungSeconds) queries
	minRung      = 2000   // enough for a p99 with 10 samples beyond it
	ladderStart  = 32 * baseRate
	ladderStep   = 2.0                    // rung factor of the climb (or descent)
	ladderRungs  = 10                     // 64k·2^9 ≈ 33M queries/s, far past capacity
	ladderRefine = 4                      // geometric bisections after the climb: resolution 2^(1/16)
	latencyLimit = 100 * time.Millisecond // p99 limit of a passing rung
	backlogSlack = 25 * time.Millisecond  // allowed p50 growth from a rung's first to its second half
	sampleEvery  = 97                     // base-phase answers re-checked one at a time
)

// Query mix: shares of event, link and density queries.
const (
	eventShare = 0.6
	linkShare  = 0.3
)

// qrec is what the benchmark learns about one query. The submitting
// goroutine writes submit/done/ok/score; the answerer writes the batch
// fields before the batcher hands the answer back, so every field is final
// once Submit returns.
type qrec struct {
	due, submit, done time.Duration // offsets from the run origin
	ok                bool
	score             float64

	snapStep         int
	ansStart, ansEnd time.Duration
	// densStart/densEnd time the first Density() of a snapshot, on the first
	// query of the batch that evaluated it.
	densFirst          bool
	densStart, densEnd time.Duration
	snap               *streamgnn.QuerySnapshot // kept for sampled queries only
}

// queryPhase is one open-loop schedule: its requests, their due offsets and
// the records the answerer fills in.
type queryPhase struct {
	reqs   []query.Request
	recs   []qrec
	sample bool // keep the serving snapshot of every sampleEvery-th query
}

// server is the benchmark's copy of queryd's answer path, instrumented.
type server struct {
	eng     *streamgnn.Engine
	origin  time.Time
	batcher *serve.Batcher
	cur     atomic.Pointer[queryPhase]

	lastDensity atomic.Int64 // newest snapshot step whose density was evaluated
	answerNs    atomic.Int64
	answered    atomic.Int64
}

func newServer(eng *streamgnn.Engine, origin time.Time) *server {
	s := &server{eng: eng, origin: origin}
	s.lastDensity.Store(-1)
	s.batcher = serve.NewBatcher(serve.Config{}, s.answer)
	return s
}

// reqID recovers the query's index in its phase. The index rides in a
// request field its kind does not read: Node for event and link queries,
// Anchor for density queries.
func reqID(r query.Request) int {
	if r.Kind == query.KindDensity {
		return r.Anchor
	}
	return r.Node
}

// answer is the batcher's answerer: the latest published snapshot answers
// the whole batch, with the seed-window density evaluated once per snapshot
// when the batch holds a density query — as in cmd/queryd.
func (s *server) answer(reqs []query.Request) []query.Answer {
	ph := s.cur.Load()
	snap := s.eng.QuerySnapshot()
	if snap == nil {
		out := make([]query.Answer, len(reqs))
		for i := range out {
			out[i] = query.Answer{Err: "no step completed yet"}
		}
		return out
	}
	a0 := time.Now()
	var density []float64
	first := -1
	var d0, d1 time.Time
	for i, r := range reqs {
		if r.Kind == query.KindDensity {
			step := int64(snap.Step())
			last := s.lastDensity.Load()
			isFirst := step > last && s.lastDensity.CompareAndSwap(last, step)
			d0 = time.Now()
			if d, err := snap.Density(); err == nil {
				density = d
			}
			d1 = time.Now()
			if isFirst {
				first = i
			}
			break
		}
	}
	answers := snap.Answer(reqs, density)
	a1 := time.Now()
	s.answerNs.Add(int64(a1.Sub(a0)))
	s.answered.Add(int64(len(reqs)))
	if ph == nil {
		return answers
	}
	for i, r := range reqs {
		id := reqID(r)
		if id < 0 || id >= len(ph.recs) {
			continue
		}
		rec := &ph.recs[id]
		rec.snapStep = snap.Step()
		rec.ansStart, rec.ansEnd = a0.Sub(s.origin), a1.Sub(s.origin)
		if i == first {
			rec.densFirst = true
			rec.densStart, rec.densEnd = d0.Sub(s.origin), d1.Sub(s.origin)
		}
		if ph.sample && id%sampleEvery == 0 {
			rec.snap = snap
		}
	}
	return answers
}

// makeRequests draws n queries of the mix over nodes [0, nodes), tagging each
// with its index (see reqID).
func makeRequests(rng *rand.Rand, n, nodes int) []query.Request {
	reqs := make([]query.Request, n)
	for i := range reqs {
		u := rng.Float64()
		switch {
		case u < eventShare:
			reqs[i] = query.Request{Kind: query.KindEvent, Anchor: rng.Intn(nodes), Node: i}
		case u < eventShare+linkShare:
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes - 1)
			if dst >= src {
				dst++
			}
			reqs[i] = query.Request{Kind: query.KindLink, Src: src, Dst: dst, Node: i}
		default:
			reqs[i] = query.Request{Kind: query.KindDensity, Node: rng.Intn(nodes), Anchor: i}
		}
	}
	return reqs
}

// runOpen submits the phase's queries open loop: query i at start + i/rate,
// whether or not earlier queries have been answered, each on its own
// goroutine (the process runs on GOMAXPROCS = nproc threads). It returns the
// number submitted, which falls short of the phase when the in-flight count
// reaches maxInFlight (a backlog), and waits for every submitted query.
func (s *server) runOpen(ph *queryPhase, start time.Time, rate float64) int {
	s.cur.Store(ph)
	var wg sync.WaitGroup
	var inflight atomic.Int64
	step := float64(time.Second) / rate
	n := 0
	for i := range ph.reqs {
		at := start.Add(time.Duration(float64(i) * step))
		for {
			d := time.Until(at)
			if d <= 0 {
				break
			}
			if d > 100*time.Microsecond {
				time.Sleep(d - 50*time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
		if inflight.Load() >= maxInFlight {
			break
		}
		ph.recs[i].due = at.Sub(s.origin)
		inflight.Add(1)
		wg.Add(1)
		n++
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			rec := &ph.recs[i]
			rec.submit = time.Since(s.origin)
			ans := s.batcher.Submit(ph.reqs[i : i+1])
			rec.done = time.Since(s.origin)
			if len(ans) == 1 && ans[0].OK && !math.IsNaN(ans[0].Score) && !math.IsInf(ans[0].Score, 0) {
				rec.ok, rec.score = true, ans[0].Score
			}
		}(i)
	}
	wg.Wait()
	return n
}

// phaseStats summarises the answered part of a phase.
type phaseStats struct {
	failed        int
	latMs, lateMs []float64 // due→answer and due→submit, per query
}

func summarise(ph *queryPhase, submitted int) phaseStats {
	var st phaseStats
	for i := 0; i < submitted; i++ {
		r := &ph.recs[i]
		if !r.ok {
			st.failed++
		}
		st.latMs = append(st.latMs, ms(r.done-r.due))
		st.lateMs = append(st.lateMs, ms(r.submit-r.due))
	}
	return st
}

// backlogged reports whether latency grew over a rung: the median latency of
// its second half exceeds that of its first half by more than backlogSlack.
// Below capacity latency is stationary; above it the queue, and every
// query's wait, grows for as long as the rung lasts.
func backlogged(latMs []float64) bool {
	h := len(latMs) / 2
	return median(latMs[h:])-median(latMs[:h]) > ms(backlogSlack)
}

// ladder measures the highest offered rate the serving path sustains: a rung
// passes when every query of it is submitted and answered, its p99 latency
// (from due time) is within latencyLimit, and it builds no backlog.
type ladder struct {
	s         *server
	pool      []query.Request
	attempted int
	failed    int
	rungs     []string
}

func (l *ladder) probe(rate float64) bool {
	n := int(rate * rungSeconds)
	if n < minRung {
		n = minRung
	}
	ph := &queryPhase{reqs: make([]query.Request, n), recs: make([]qrec, n)}
	for i := range ph.reqs {
		r := l.pool[i%len(l.pool)]
		if r.Kind == query.KindDensity {
			r.Anchor = i
		} else {
			r.Node = i
		}
		ph.reqs[i] = r
	}
	start := time.Now().Add(time.Millisecond)
	sub := l.s.runOpen(ph, start, rate)
	st := summarise(ph, sub)
	l.attempted += sub
	l.failed += st.failed
	pass := sub == n && st.failed == 0
	p99 := math.Inf(1)
	if pass {
		p, err := percentile(st.latMs, 0.99)
		pass = err == nil && p <= ms(latencyLimit) && !backlogged(st.latMs)
		p99 = p
	}
	l.rungs = append(l.rungs, fmt.Sprintf("%.0f:%.1fms:%v", rate, p99, pass))
	return pass
}

// search runs one ladder search and returns the highest passing rate.
func (l *ladder) search() (float64, error) {
	return ladderSearch(ladderStart, ladderStep, ladderRungs, ladderRefine, l.probe)
}

// traceQueries records the spans of a phase's queries from their records:
// the query from due time to answer, its Batcher.Submit call, the answerer
// call that served its batch and, on the query that triggered it, the
// snapshot's first Density() evaluation. A query's spans share its trace id.
func traceQueries(tr *tracer, ph *queryPhase, submitted int) {
	for i := 0; i < submitted; i++ {
		r := &ph.recs[i]
		trace := int64(i + 1)
		q := tr.addAt("query", 0, trace, r.due, r.done)
		sub := tr.addAt("batcher.submit", q, trace, r.submit, r.done)
		ans := tr.addAt("answerer", sub, trace, r.ansStart, r.ansEnd)
		if r.densFirst {
			tr.addAt("kde.density", ans, trace, r.densStart, r.densEnd)
		}
	}
}
