package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the id of the enclosing span (0 for a root); the spans
// of one query share its Trace id (0 for stream spans).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent, trace int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	return t.addAt(name, parent, trace, start.Sub(t.origin), end.Sub(t.origin))
}

// addAt records a span given as offsets from the tracer's origin.
func (t *tracer) addAt(name string, parent, trace int64, start, end time.Duration) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
	return id
}

// write stores the spans as gzip-compressed JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats reduces spans to per-name durations and self times, in
// milliseconds. A span's self time is its duration minus the part of its
// interval covered by its children.
type spanStats struct {
	dur, self map[string][]float64
}

func reduceSpans(spans []span) spanStats {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		d := s.End - s.Start
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			cs, ce := spans[c].Start, spans[c].End
			if cs < s.Start {
				cs = s.Start
			}
			if ce > s.End {
				ce = s.End
			}
			if ce > cs {
				ivs = append(ivs, [2]int64{cs, ce})
			}
		}
		st.dur[s.Name] = append(st.dur[s.Name], float64(d)/1e6)
		st.self[s.Name] = append(st.self[s.Name], float64(d-covered(ivs))/1e6)
	}
	return st
}

// covered returns the total length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	first := true
	for _, iv := range ivs {
		switch {
		case first || iv[0] > end:
			total += iv[1] - iv[0]
			end = iv[1]
			first = false
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// cpuModules are the program's modules the CPU profile is summarised by, in
// report order; "runtime" collects the Go runtime (allocation and GC).
var cpuModules = []string{"tensor", "autodiff", "nn", "dgnn", "graph", "core", "sampling", "kde", "query", "serve", "runtime"}

// moduleCPU summarises CPU profiles, merged, into self (flat) CPU
// milliseconds per module, using the installed `go tool pprof`.
func moduleCPU(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parsePprofTop(string(out))
}

// parsePprofTop sums the flat column of `pprof -top` output by module.
func parsePprofTop(out string) (map[string]float64, error) {
	res := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		res[m] = 0
	}
	header := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		flat, err := parseMs(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		if m := moduleOf(strings.Join(f[5:], " ")); m != "" {
			res[m] += flat
		}
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no table")
	}
	return res, nil
}

// moduleOf maps a profiled function name to its module, or "" when it is
// outside the modules reported.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if m, ok := strings.CutPrefix(pkg, "streamgnn/internal/"); ok {
		for _, want := range cpuModules {
			if m == want {
				return m
			}
		}
	}
	return ""
}

// parseMs reads a pprof duration such as "120ms", "1.5s" or "0".
func parseMs(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ms", 1}, {"us", 1e-3}, {"µs", 1e-3}, {"ns", 1e-6}, {"s", 1e3}}
	for _, u := range units {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			x, err := strconv.ParseFloat(v, 64)
			return x * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}
