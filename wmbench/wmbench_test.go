package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smallConfig is a reduced-size run: short windows, one set-up, a fraction
// of a second of measuring.
func smallConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 400 * time.Millisecond, trace: trace, work: t.TempDir(), small: true}
}

// TestEveryMetricPrinted runs each workload at reduced size, untraced and
// traced, and checks that the outputs pass their checks and that every
// metric appears in the table and in the JSON line with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := execute(context.Background(), fn, smallConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.correct() {
				t.Fatalf("%s trace=%v: checks failed: %v", name, trace, rep.checks.failures)
			}
			var out bytes.Buffer
			rep.print(&out, name, trace)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line jsonLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line is not the JSON result: %v", name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result %+v", name, trace, line)
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !strings.Contains(out.String(), " "+d.name+" ") {
					t.Errorf("%s trace=%v: table lacks %s", name, trace, d.name)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if line.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.name, line.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptOutputFailsCheck injects one wrong output into each workload
// (a wrong load in the crawl's archive, a short raw response on the
// dashboard, a lost snapshot in the reprocessed archive) and expects the
// run to be reported incorrect.
func TestCorruptOutputFailsCheck(t *testing.T) {
	for name, fn := range workloads {
		cfg := smallConfig(t, false)
		cfg.corrupt = true
		rep, err := execute(context.Background(), fn, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.correct() {
			t.Errorf("%s: a corrupted output passed every check", name)
		}
		var out bytes.Buffer
		rep.print(&out, name, false)
		if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), "CHECK FAILED") {
			t.Errorf("%s: output does not report the failed check:\n%s", name, out.String())
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	ds := []time.Duration{5 * time.Millisecond, time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if got := percentile(ds, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(ds, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "collect.collect_at", Parent: -1, Start: 0, End: 100},
		{Name: "extract.scan", Parent: 0, Start: 10, End: 40},
		{Name: "extract.attribute", Parent: 0, Start: 30, End: 60}, // overlaps the scan
		{Name: "tsdb.commit", Parent: -1, Start: 100, End: 120},
	}}
	st := tr.stats()
	if st.self["collect"] != 50 || st.self["extract"] != 60 || st.self["tsdb"] != 20 {
		t.Errorf("self times %v, want collect 50, extract 60, tsdb 20", st.self)
	}
	if st.calls["extract.scan"] != 1 || st.total["extract.attribute"] != 30 {
		t.Errorf("calls %v totals %v", st.calls, st.total)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
}
