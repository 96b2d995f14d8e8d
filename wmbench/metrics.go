package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the pipeline sees, printed by every
// untraced run. What "op" and "latency" mean depends on the workload:
//
//	crawl      op = snapshot made queryable; latency = freshness (OnStored entry → probe lists it)
//	dashboard  op = HTTP request;            latency = request latency across all classes
//	reprocess  op = snapshot processed;      latency = gap between snapshots leaving the worker pool
//
// A run measures in windows (crawl and reprocess: one pass over their
// input; dashboard: 1 s for throughput, 2 s for p99). Throughput is the
// median of the windows' throughputs and latency_p99_ms the median of the
// windows' p99s, so one stalled window moves neither; latency_p50_ms is
// over every sample of the run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"alloc_kb_per_op", "KB"},
	{"allocs_per_op", "count"},
	{"archive_bytes_per_snapshot", "B"},
	{"peak_rss_mb", "MB"},
}

// httpClasses are the query API request classes.
var httpClasses = []string{"maps", "topology", "link_raw", "link_15m", "link_1h", "grid_1h", "events", "imbalance"}

// selfLayers are the layers whose self time a traced run reports.
var selfLayers = []string{"collect", "extract", "dataset", "tsdb", "http", "events", "analysis"}

// perLayer are the metrics a traced run prints. Durations named *_ms are
// means per call unless the name says otherwise; counts are totals of the
// traced phase (render.* of one set-up).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"render.layout_ms", "ms"}, {"render.layout_calls", "count"}, {"render.svg_ms", "ms"}, {"render.failed", "count"},
		{"collect.fetch_ms", "ms"}, {"collect.fetched", "count"},
		{"extract.scan_ms", "ms"}, {"extract.scan_mb_per_s", "MB/s"}, {"extract.attribute_ms", "ms"},
		{"extract.attribute_hits", "count"}, {"extract.attribute_misses", "count"}, {"extract.attribute_hit_ratio", "ratio"},
		{"dataset.process_ms", "ms"}, {"dataset.yaml_bytes", "B"},
		{"tsdb.append_ms", "ms"}, {"tsdb.detect_ms", "ms"}, {"tsdb.commit_ms", "ms"}, {"tsdb.commits", "count"},
		{"tsdb.refresh_ms", "ms"}, {"tsdb.refresh_adopted", "count"},
		{"tsdb.blockcache_hits", "count"}, {"tsdb.blockcache_misses", "count"}, {"tsdb.blockcache_evictions", "count"},
		{"tsdb.blockcache_hit_ratio", "ratio"}, {"tsdb.blockcache_dedups", "count"},
		{"tsdb.planner_rollup_share", "ratio"}, {"tsdb.grid_scan_ms", "ms"},
	}
	for _, c := range httpClasses {
		defs = append(defs, metricDef{"http." + c + ".p50_ms", "ms"}, metricDef{"http." + c + ".p99_ms", "ms"},
			metricDef{"http." + c + ".kb_per_req", "KB"})
	}
	defs = append(defs,
		metricDef{"events.detected", "count"}, metricDef{"events.delivered", "count"}, metricDef{"events.dropped", "count"},
		metricDef{"analysis.fold_ms", "ms"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"failed_share", "ratio"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self." + l + "_ms_per_op", "ms"})
	}
	return append(defs,
		metricDef{"trace.spans", "count"},
		metricDef{"trace.overhead_throughput_pct", "%"},
		metricDef{"trace.overhead_latency_p50_pct", "%"},
	)
}()

// memSample is the process-wide allocation and GC state at one instant.
type memSample struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// sub returns the change from s0 to s.
func (s memSample) sub(s0 memSample) memSample {
	return memSample{s.mallocs - s0.mallocs, s.bytes - s0.bytes, s.gcs - s0.gcs, s.pauseNs - s0.pauseNs}
}

func (s *memSample) add(d memSample) {
	s.mallocs += d.mallocs
	s.bytes += d.bytes
	s.gcs += d.gcs
	s.pauseNs += d.pauseNs
}

// memSampler tracks the peak of the Go runtime's resident memory (mapped
// and not released to the OS) while a phase is measured, sampling every
// 20 ms.
type memSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		var peak uint64
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-m.stop:
				m.peak <- peak
				return
			case <-tk.C:
			}
		}
	}()
	return m
}

// end stops the sampler and returns the peak in MB.
func (m *memSampler) end() float64 {
	close(m.stop)
	return float64(<-m.peak) / (1 << 20)
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of ds, in ms.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return ms(s[max(k, 0)])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is the median of ds.
func medianDur(ds []time.Duration) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(median(fs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// classStats accumulates one HTTP request class's client-side latencies
// and body sizes.
type classStats struct {
	lat   []time.Duration
	bytes int64
}

// phase is one measured phase of a workload.
type phase struct {
	wall      time.Duration   // measured wall time
	ops       int64           // operations completed (see endToEnd)
	latencies []time.Duration // the workload's latency samples
	rates     []float64       // throughput of each measurement window, ops/s
	tails     []float64       // p99 latency of each measurement window, ms
	peakMB    float64         // peak resident Go memory while measuring
	mem       memSample       // allocation and GC deltas over the measured time
	attempted int64
	failed    int64 // fetch/scan/attribution drops, non-200s, undelivered SSE events

	archiveBytes, archiveSnapshots int64
	http                           map[string]*classStats
	raws                           []rawCheck
	layer                          map[string]float64 // per-layer counters set by the workload
	tr                             *tracer
}

func newPhase(traced bool) *phase {
	p := &phase{http: map[string]*classStats{}, layer: map[string]float64{}}
	if traced {
		p.tr = newTracer()
	}
	return p
}

func (p *phase) class(name string) *classStats {
	c := p.http[name]
	if c == nil {
		c = &classStats{}
		p.http[name] = c
	}
	return c
}

// mergeHTTP folds the HTTP samples of q into p.
func (p *phase) mergeHTTP(q *phase) {
	for name, c := range q.http {
		pc := p.class(name)
		pc.lat = append(pc.lat, c.lat...)
		pc.bytes += c.bytes
	}
}

func (p *phase) throughput() float64 { return median(p.rates) }

// measureMem brackets a measured interval: it returns a function that
// adds the interval's allocations and peak memory to p. It first collects
// the garbage and returns the free memory to the OS, so the peak is the
// interval's own and not what set-up or an earlier interval left behind.
func (p *phase) measureMem() func() {
	runtime.GC()
	debug.FreeOSMemory()
	m0, s := readMem(), startMemSampler()
	return func() {
		p.mem.add(readMem().sub(m0))
		p.peakMB = max(p.peakMB, s.end())
	}
}

// endToEndValues derives the end-to-end metrics of p.
func (p *phase) endToEndValues(setups []time.Duration) map[string]float64 {
	ops := float64(max(p.ops, 1))
	return map[string]float64{
		"setup_s":                    medianDur(setups).Seconds(),
		"throughput_per_s":           p.throughput(),
		"latency_p50_ms":             percentile(p.latencies, 0.50),
		"latency_p99_ms":             median(p.tails),
		"alloc_kb_per_op":            float64(p.mem.bytes) / 1024 / ops,
		"allocs_per_op":              float64(p.mem.mallocs) / ops,
		"archive_bytes_per_snapshot": ratio(float64(p.archiveBytes), float64(p.archiveSnapshots)),
		"peak_rss_mb":                p.peakMB,
	}
}

// checks collects output-check results; a run with any failure is not
// correct.
type checks struct {
	n        int
	failures []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.n++
	if !ok && len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// report is a finished workload run.
type report struct {
	setups       []time.Duration
	phases       []*phase // untraced first, then the traced phase if any
	renderFailed int64    // snapshots the set-up could not render
	setupLayer   map[string]float64
	checks       checks
}

func (r *report) correct() bool { return len(r.checks.failures) == 0 }

// layerValues derives every per-layer metric from the traced phase.
func (r *report) layerValues() map[string]float64 {
	base, tp := r.phases[0], r.phases[len(r.phases)-1]
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	for k, x := range r.setupLayer {
		v[k] = x
	}
	for k, x := range tp.layer {
		v[k] = x
	}
	st := tp.tr.stats()
	mean := func(name string) float64 { return ratio(ms(st.total[name]), float64(st.calls[name])) }
	v["collect.fetch_ms"] = ratio(ms(st.self["collect"]), v["collect.fetched"])
	v["extract.scan_ms"] = mean("extract.scan")
	v["extract.scan_mb_per_s"] = ratio(tp.layer["extract.scan_bytes"]/1e6, st.total["extract.scan"].Seconds())
	v["extract.attribute_ms"] = mean("extract.attribute")
	v["extract.attribute_hit_ratio"] = ratio(v["extract.attribute_hits"], v["extract.attribute_hits"]+v["extract.attribute_misses"])
	v["dataset.process_ms"] = ratio(ms(st.self["dataset"]), tp.layer["dataset.snapshots"])
	v["tsdb.append_ms"] = mean("tsdb.append")
	v["tsdb.detect_ms"] = mean("replay.detect")
	v["tsdb.commit_ms"] = mean("tsdb.commit")
	v["tsdb.commits"] = float64(st.calls["tsdb.commit"])
	v["tsdb.refresh_ms"] = mean("tsdb.refresh")
	v["tsdb.blockcache_hit_ratio"] = ratio(v["tsdb.blockcache_hits"], v["tsdb.blockcache_hits"]+v["tsdb.blockcache_misses"])
	v["tsdb.grid_scan_ms"] = mean("replay.grid_scan")
	v["analysis.fold_ms"] = mean("analysis.fold")
	for _, c := range httpClasses {
		if cs := tp.http[c]; cs != nil && len(cs.lat) > 0 {
			v["http."+c+".p50_ms"] = percentile(cs.lat, 0.50)
			v["http."+c+".p99_ms"] = percentile(cs.lat, 0.99)
			v["http."+c+".kb_per_req"] = float64(cs.bytes) / 1024 / float64(len(cs.lat))
		}
	}
	v["runtime.gc_cycles"] = float64(tp.mem.gcs)
	v["runtime.gc_pause_ms"] = float64(tp.mem.pauseNs) / 1e6
	v["failed_share"] = ratio(float64(tp.failed+r.renderFailed), float64(tp.attempted+r.renderFailed))
	for _, l := range selfLayers {
		v["self."+l+"_ms_per_op"] = ratio(ms(st.self[l]), float64(tp.ops))
	}
	v["trace.spans"] = float64(len(tp.tr.spans))
	v["trace.overhead_throughput_pct"] = 100 * ratio(base.throughput()-tp.throughput(), base.throughput())
	b50, t50 := percentile(base.latencies, 0.5), percentile(tp.latencies, 0.5)
	v["trace.overhead_latency_p50_pct"] = 100 * ratio(t50-b50, b50)
	return v
}

// print writes the human-readable table and then the JSON result line.
func (r *report) print(w io.Writer, workload string, traced bool) {
	base := r.phases[0]
	e2e := base.endToEndValues(r.setups)
	var attempted, failed int64
	for _, p := range r.phases {
		attempted += p.attempted
		failed += p.failed
	}
	fmt.Fprintf(w, "workload %s: %d set-up(s), %d op(s) in %.2fs untraced, %d checks\n",
		workload, len(r.setups), base.ops, base.wall.Seconds(), r.checks.n)
	fmt.Fprintf(w, "  %-34s %14.4f %s\n", "failed_share (incl. render)",
		ratio(float64(failed+r.renderFailed), float64(attempted+r.renderFailed)), "ratio")
	defs, vals := endToEnd, e2e
	if traced {
		defs, vals = perLayer, r.layerValues()
		tp := r.phases[len(r.phases)-1]
		te := tp.endToEndValues(r.setups)
		for _, d := range endToEnd[1:4] {
			fmt.Fprintf(w, "  %-34s %14.4f %s (untraced %.4f)\n", "traced "+d.name, te[d.name], d.unit, e2e[d.name])
		}
	}
	line := jsonLine{Correct: r.correct(), Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, vals[d.name], d.unit)
		line.Metrics[d.name] = jsonMetric{Value: vals[d.name], Unit: d.unit}
	}
	for _, f := range r.checks.failures {
		fmt.Fprintln(w, "  CHECK FAILED:", f)
	}
	fmt.Fprintln(w, marshalLine(line))
}
