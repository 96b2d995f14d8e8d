package extract_test

import (
	"bytes"
	"testing"
	"time"

	"ovhweather/internal/allocbudget"
	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

// scanOf renders m and runs Algorithm 1 on the result.
func scanOf(t *testing.T, m *wmap.Map) *extract.ScanResult {
	t.Helper()
	var buf bytes.Buffer
	if err := render.Render(&buf, m, render.Options{}); err != nil {
		t.Fatalf("render: %v", err)
	}
	res, err := extract.ScanBytes(buf.Bytes(), extract.ScanOptions{})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return res
}

// yamlOf attributes res without the cache and marshals the result — the
// reference bytes the cached path must reproduce exactly.
func yamlOf(t *testing.T, res *extract.ScanResult, id wmap.MapID, at time.Time, opt extract.Options) []byte {
	t.Helper()
	m, err := extract.Attribute(res, id, at, opt)
	if err != nil {
		t.Fatalf("attribute: %v", err)
	}
	data, err := extract.MarshalYAML(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// cachedYAML attributes res through the cache and marshals the result.
func cachedYAML(t *testing.T, c *extract.AttributionCache, res *extract.ScanResult, id wmap.MapID, at time.Time) []byte {
	t.Helper()
	m, err := c.Attribute(res, id, at)
	if err != nil {
		t.Fatalf("cached attribute: %v", err)
	}
	data, err := extract.MarshalYAML(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// TestAttributionCacheTimeline is the acceptance check: across a timeline
// with load changes and topology churn, the cached path must produce
// byte-identical YAML to uncached attribution, hitting on load-only changes
// and missing on every geometry change.
func TestAttributionCacheTimeline(t *testing.T) {
	sc := netsim.DefaultScenario()
	base := simAt(t, wmap.Europe, sc.End)
	opt := extract.DefaultOptions()
	c := extract.NewAttributionCache(opt)

	// A timeline over one topology: the same map with shifting loads, then
	// churn (a removed link), then the original topology again.
	loadsShifted := func(m *wmap.Map, delta int) *wmap.Map {
		out := m.Clone()
		for i := range out.Links {
			out.Links[i].LoadAB = wmap.Load((int(out.Links[i].LoadAB) + delta) % 101)
			out.Links[i].LoadBA = wmap.Load((int(out.Links[i].LoadBA) + 2*delta) % 101)
		}
		return out
	}
	// Churn drops a link whose endpoints both keep other links, so the
	// churned map still passes the connectivity sanity check.
	churned := base.Clone()
	drop := -1
	for i, l := range churned.Links {
		if churned.Degree(l.A) > 1 && churned.Degree(l.B) > 1 {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Fatal("no removable link in the simulated topology")
	}
	churned.Links = append(churned.Links[:drop:drop], churned.Links[drop+1:]...)

	timeline := []*wmap.Map{
		base,                     // miss: cold cache
		loadsShifted(base, 7),    // hit: same geometry, new loads
		loadsShifted(base, 23),   // hit
		churned,                  // miss: a link vanished
		loadsShifted(churned, 5), // hit on the churned topology
		base,                     // miss: single-entry cache was replaced
	}
	wantHits, wantMisses := 3, 3

	for i, m := range timeline {
		at := sc.End.Add(time.Duration(i) * time.Hour)
		res := scanOf(t, m)
		want := yamlOf(t, res, m.ID, at, opt)
		got := cachedYAML(t, c, res, m.ID, at)
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: cached YAML diverges from uncached attribution\ncached:\n%s\nuncached:\n%s", i, got, want)
		}
	}
	if c.Hits() != wantHits || c.Misses() != wantMisses {
		t.Errorf("hits=%d misses=%d, want %d/%d", c.Hits(), c.Misses(), wantHits, wantMisses)
	}
}

// TestAttributionCacheGeometrySensitivity checks the invalidation rule
// directly on scanned geometry: any change to names, boxes, arrows or label
// texts must miss; load and fill changes must hit.
func TestAttributionCacheGeometrySensitivity(t *testing.T) {
	sc := netsim.DefaultScenario()
	base := simAt(t, wmap.AsiaPacific, sc.End)
	opt := extract.DefaultOptions()
	at := sc.End

	prime := scanOf(t, base)

	mutations := []struct {
		name    string
		mutate  func(*extract.ScanResult)
		wantHit bool
	}{
		{"loads only", func(r *extract.ScanResult) {
			for i := range r.Links {
				r.Links[i].Loads[0] = (r.Links[i].Loads[0] + 13) % 101
				r.Links[i].Loads[1] = (r.Links[i].Loads[1] + 29) % 101
			}
		}, true},
		{"fills only", func(r *extract.ScanResult) {
			r.Links[0].Fills = [2]string{"#123456", "#654321"}
		}, true},
		{"router renamed", func(r *extract.ScanResult) {
			r.Routers[0].Name += "x"
		}, false},
		{"router box moved", func(r *extract.ScanResult) {
			r.Routers[0].Box.Min.X += 0.25
		}, false},
		{"arrow point moved", func(r *extract.ScanResult) {
			r.Links[0].ArrowA[0].X += 0.25
		}, false},
		{"label text changed", func(r *extract.ScanResult) {
			r.Labels[0].Text += "!"
		}, false},
		{"label box moved", func(r *extract.ScanResult) {
			r.Labels[0].Box.Max.Y += 0.25
		}, false},
	}

	for _, mut := range mutations {
		t.Run(mut.name, func(t *testing.T) {
			c := extract.NewAttributionCache(opt)
			if _, err := c.Attribute(prime, base.ID, at); err != nil {
				t.Fatalf("prime: %v", err)
			}
			res := scanOf(t, base) // fresh copy of the same geometry
			mut.mutate(res)
			want := yamlOf(t, res, base.ID, at.Add(time.Hour), opt)
			got := cachedYAML(t, c, res, base.ID, at.Add(time.Hour))
			if !bytes.Equal(got, want) {
				t.Fatalf("cached YAML diverges from uncached attribution")
			}
			hit := c.Hits() == 1
			if hit != mut.wantHit {
				t.Errorf("hit=%v, want %v (hits=%d misses=%d)", hit, mut.wantHit, c.Hits(), c.Misses())
			}
		})
	}
}

// TestAttributionCacheErrorNotCached verifies failures leave the previous
// entry in place: broken geometry errors through, and the prior topology
// still hits afterwards.
func TestAttributionCacheErrorNotCached(t *testing.T) {
	sc := netsim.DefaultScenario()
	base := simAt(t, wmap.World, sc.End)
	opt := extract.DefaultOptions()
	c := extract.NewAttributionCache(opt)
	at := sc.End

	prime := scanOf(t, base)
	if _, err := c.Attribute(prime, base.ID, at); err != nil {
		t.Fatalf("prime: %v", err)
	}

	broken := scanOf(t, base)
	// Coinciding arrow bases make attribution fail deterministically.
	broken.Links[0].ArrowB = append(broken.Links[0].ArrowB[:0:0], broken.Links[0].ArrowA...)
	if _, err := c.Attribute(broken, base.ID, at.Add(time.Hour)); err == nil {
		t.Fatal("broken geometry attributed without error")
	}

	again := scanOf(t, base)
	want := yamlOf(t, again, base.ID, at.Add(2*time.Hour), opt)
	got := cachedYAML(t, c, again, base.ID, at.Add(2*time.Hour))
	if !bytes.Equal(got, want) {
		t.Fatal("post-error hit diverges from uncached attribution")
	}
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", c.Hits(), c.Misses())
	}
}

// withLoads returns a copy of res whose loads are shifted by delta — the
// load-only successor of a snapshot, sharing its geometry.
func withLoads(res *extract.ScanResult, delta int) *extract.ScanResult {
	out := *res
	out.Links = append([]extract.RawLink(nil), res.Links...)
	for i := range out.Links {
		out.Links[i].Loads[0] = wmap.Load((int(out.Links[i].Loads[0]) + delta) % 101)
		out.Links[i].Loads[1] = wmap.Load((int(out.Links[i].Loads[1]) + 3*delta) % 101)
	}
	return &out
}

// removableLink returns the index of a link whose endpoints both keep
// other links, so dropping it leaves a map that still passes the
// connectivity sanity check.
func removableLink(t *testing.T, m *wmap.Map) int {
	t.Helper()
	for i, l := range m.Links {
		if m.Degree(l.A) > 1 && m.Degree(l.B) > 1 {
			return i
		}
	}
	t.Fatal("no removable link in the simulated topology")
	return -1
}

// TestAttributionCacheInterleavedMaps polls the four maps round-robin, as
// wmcollect does, through one shared cache. Europe loses a link at step 3
// and gets it back at step 5; the other maps only change loads. Every
// output must match uncached attribution byte for byte, Europe's change
// must not evict the other maps' entries, and the hit/miss counts are
// exact: four cold misses, Europe's change and its revert.
func TestAttributionCacheInterleavedMaps(t *testing.T) {
	sc := netsim.DefaultScenario()
	opt := extract.DefaultOptions()
	base := map[wmap.MapID]*extract.ScanResult{}
	var europe *wmap.Map
	for _, id := range wmap.AllMaps() {
		m := simAt(t, id, sc.End)
		if id == wmap.Europe {
			europe = m
		}
		base[id] = scanOf(t, m)
	}
	churned := europe.Clone()
	drop := removableLink(t, churned)
	churned.Links = append(churned.Links[:drop:drop], churned.Links[drop+1:]...)
	europeChurned := scanOf(t, churned)

	const steps = 8
	c := extract.NewAttributionCache(opt)
	wantHits, wantMisses := 0, 0
	for step := 0; step < steps; step++ {
		at := sc.End.Add(time.Duration(step) * 5 * time.Minute)
		for _, id := range wmap.AllMaps() {
			geometry := base[id]
			if id == wmap.Europe && (step == 3 || step == 4) {
				geometry = europeChurned
			}
			res := withLoads(geometry, step)
			// Misses: each map's first poll, Europe's link removal, and its
			// revert (Europe's own entry was replaced by the churned one).
			wantMiss := step == 0 || (id == wmap.Europe && (step == 3 || step == 5))
			if wantMiss {
				wantMisses++
			} else {
				wantHits++
			}
			hits := c.Hits()
			want := yamlOf(t, res, id, at, opt)
			got := cachedYAML(t, c, res, id, at)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d %s: cached YAML diverges from uncached attribution", step, id)
			}
			if hit := c.Hits() > hits; hit == wantMiss {
				t.Errorf("step %d %s: hit=%v, want %v", step, id, hit, !wantMiss)
			}
		}
	}
	if c.Hits() != wantHits || c.Misses() != wantMisses {
		t.Errorf("hits=%d misses=%d, want %d/%d", c.Hits(), c.Misses(), wantHits, wantMisses)
	}
	if wantMisses != 6 {
		t.Fatalf("timeline expects %d misses, want 6", wantMisses)
	}
}

// TestAllocBudgetAttributionCacheHit pins a cache hit, with the four maps
// interleaved through one cache, at the output map's own allocations (the
// map and its node and link slices).
func TestAllocBudgetAttributionCacheHit(t *testing.T) {
	sc := netsim.DefaultScenario()
	ids := wmap.AllMaps()
	scans := make([]*extract.ScanResult, len(ids))
	for i, id := range ids {
		scans[i] = scanOf(t, simAt(t, id, sc.End))
	}
	c := extract.NewAttributionCache(extract.DefaultOptions())
	for i, id := range ids {
		if _, err := c.Attribute(scans[i], id, sc.End); err != nil {
			t.Fatal(err)
		}
	}
	call := 0
	allocbudget.Check(t, 40, 4, func() {
		i := call % len(ids)
		call++
		if _, err := c.Attribute(scans[i], ids[i], sc.End.Add(time.Duration(call)*5*time.Minute)); err != nil {
			t.Fatal(err)
		}
	})
	if c.Misses() != len(ids) {
		t.Errorf("misses=%d after priming, want %d: interleaved maps evicted each other", c.Misses(), len(ids))
	}
}

// TestAllocBudgetScanBytesInto pins Algorithm 1 over a rendered Europe map,
// reusing one ScanResult as the live ingest does, at a constant handful of
// allocations (the lexer's point arena and the scan closure) rather than
// one per element, router, link or label.
func TestAllocBudgetScanBytesInto(t *testing.T) {
	var buf bytes.Buffer
	if err := render.Render(&buf, simAt(t, wmap.Europe, netsim.DefaultScenario().End), render.Options{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var res extract.ScanResult
	allocbudget.Check(t, 20, 64, func() {
		if err := extract.ScanBytesInto(&res, data, extract.ScanOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if len(res.Links) == 0 {
		t.Fatal("scan found no links")
	}
}
