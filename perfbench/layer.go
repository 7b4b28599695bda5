package main

// layerInputs is everything a traced round hands to the per-layer reduction.
type layerInputs struct {
	steps float64 // timed steps
	nodes float64 // graph sizes summed over the timed steps
	use   counters
	spans spanStats
	cpuMs map[string]float64 // self CPU ms per module over the timed segments
	base  []phaseStats       // the base-rate query phases
	serve serveCounters
	ckpt  ckptTimes
}

// layerMetrics reduces a traced round to the per-layer metrics. Step-phase
// and ingest figures are means over the timed steps; serving figures cover
// the base-rate query phases.
func layerMetrics(in layerInputs) map[string]float64 {
	u := in.use
	m := map[string]float64{}
	m["ingest.ms_per_step"] = mean(in.spans.dur["stream.advance"])
	for _, p := range []string{"expire", "forward", "reveal", "predict", "train"} {
		m["phase."+p+"_ms"] = mean(in.spans.dur["phase."+p])
	}
	// Step minus its five phases: snapshot publish and bookkeeping.
	m["phase.publish_ms"] = mean(in.spans.self["engine.step"])

	m["dgnn.full_forward_share"] = ratio(float64(u.fullFwd), float64(u.fullFwd+u.incFwd))
	m["dgnn.recomputed_rows_per_step"] = (in.nodes - float64(u.skippedRows)) / in.steps
	m["core.ms_per_partition"] = ratio(1e3*u.trainS, float64(u.partitions))
	m["graph.partition_cache_hit_rate"] = ratio(float64(u.cacheHits), float64(u.cacheHits+u.cacheMisses))
	m["tensor.mb_per_step"] = float64(u.tensorB) / 1e6 / in.steps
	m["gc.cycles_per_step"] = u.gcCycles / in.steps
	m["gc.cpu_share"] = ratio(u.gcCPU, u.totalCPU)
	// The profiles cover the timed segments only (with the queries beside
	// the paced steps on reddit-serve).
	for _, mod := range cpuModules {
		m["cpu."+mod+"_ms_per_step"] = in.cpuMs[mod] / in.steps
	}

	m["serve.batch_size_mean"] = ratio(in.serve.queries, in.serve.batches)
	if p, err := percentile(in.spans.self["batcher.submit"], 0.5); err == nil {
		m["serve.wait_p50_ms"] = p
	}
	m["query.answer_us_per_query"] = ratio(in.serve.answerNs/1e3, in.serve.answered)
	m["kde.density_ms"] = mean(in.spans.dur["kde.density"])
	var late []float64
	for _, b := range in.base {
		late = append(late, b.lateMs...)
	}
	if p, err := percentile(late, 0.99); err == nil {
		m["serve.generator_late_ms"] = p
	}
	m["ckpt.save_ms"] = in.ckpt.saveMs
	m["ckpt.load_ms"] = in.ckpt.loadMs
	m["ckpt.mb"] = in.ckpt.mb
	return m
}

// serveCounters sums the batcher's and the answerer's counters over servers.
type serveCounters struct {
	batches, queries, answerNs, answered float64
}

func (c *serveCounters) add(s *server) {
	c.batches += float64(s.batcher.Batches())
	c.queries += float64(s.batcher.Queries())
	c.answerNs += float64(s.answerNs.Load())
	c.answered += float64(s.answered.Load())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
