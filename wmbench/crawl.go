package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ovhweather/internal/collect"
	"ovhweather/internal/dataset"
	"ovhweather/internal/events"
	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// The crawl workload is live ingest with reads beside writes: what
// `wmcollect -archive` plus `wmserve -live` do. One closed-loop cycle per
// 5-minute virtual step polls all four maps, extracts and appends them,
// commits, refreshes the serving reader, publishes new events over SSE and
// then sends a freshness probe plus four dashboard-mix requests.
//
// The window crosses 2022-09-03T00:00Z, when netsim adds Europe's last
// monthly external links, so each pass holds one topology change and the
// attribution re-run it forces.
var (
	crawlFrom = time.Date(2022, time.September, 2, 21, 0, 0, 0, time.UTC)
	crawlTo   = time.Date(2022, time.September, 3, 3, 0, 0, 0, time.UTC)
)

const snapshotStep = 5 * time.Minute

// crawlInput is one crawl set-up: the window's netsim maps, their
// pre-rendered SVGs on the simulated site, and the site's server.
type crawlInput struct {
	times []time.Time
	truth [][]*wmap.Map // [step][map]
	site  *site
	srv   *loopback
	rs    renderStats
}

func setupCrawl(small bool) (*crawlInput, error) {
	to := crawlTo
	if small {
		to = crawlFrom.Add(time.Hour)
	}
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		return nil, err
	}
	in := &crawlInput{}
	var flat []*wmap.Map
	for t := crawlFrom; !t.After(to); t = t.Add(snapshotStep) {
		row := make([]*wmap.Map, 0, 4)
		for _, id := range wmap.AllMaps() {
			m, err := sim.MapAt(id, t)
			if err != nil {
				return nil, err
			}
			row = append(row, m)
			flat = append(flat, m)
		}
		in.times = append(in.times, t)
		in.truth = append(in.truth, row)
	}
	svgs, rs := renderAll(flat, 2)
	if rs.failed > 0 {
		return nil, fmt.Errorf("crawl: %d snapshots of the window failed to render", rs.failed)
	}
	in.rs = rs
	rows := make([][][]byte, len(in.times))
	for i := range rows {
		rows[i] = svgs[i*4 : i*4+4]
	}
	in.site = newSite(wmap.AllMaps(), rows)
	if in.srv, err = startLoopback(in.site); err != nil {
		return nil, err
	}
	return in, nil
}

func runCrawl(ctx context.Context, cfg config, phases []bool) (*report, error) {
	rep := &report{}
	var in *crawlInput
	for i := 0; i < cfg.setups(3); i++ {
		if in != nil {
			in.srv.close()
		}
		t0 := time.Now()
		var err error
		if in, err = setupCrawl(cfg.small); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0))
	}
	defer in.srv.close()
	rep.setupLayer = in.rs.layer()
	rng := rand.New(rand.NewSource(cfg.seed))
	pass := 0
	for _, traced := range phases {
		p := newPhase(traced)
		for p.wall < cfg.seconds {
			pass++
			if err := crawlPass(ctx, cfg, in, rng, p, &rep.checks, pass); err != nil {
				return nil, err
			}
		}
		rep.phases = append(rep.phases, p)
	}
	return rep, nil
}

// crawlPass ingests the whole window into a fresh live archive, then
// checks what it ingested.
func crawlPass(ctx context.Context, cfg config, in *crawlInput, rng *rand.Rand, p *phase, chk *checks, pass int) error {
	dir := filepath.Join(cfg.work, fmt.Sprintf("crawl-%d", pass))
	defer os.RemoveAll(dir)
	store, err := dataset.Open(filepath.Join(dir, "dataset"))
	if err != nil {
		return err
	}
	archPath := filepath.Join(dir, "live.tsdb")
	arch, err := tsdb.OpenAppend(archPath)
	if err != nil {
		return err
	}
	defer arch.Close()
	if err := arch.Sync(); err != nil { // the empty first commit a live reader opens on
		return err
	}
	rd, err := tsdb.OpenFile(archPath)
	if err != nil {
		return err
	}
	defer rd.Close()
	rd.SetBlockCache(tsdb.NewBlockCache(tsdb.DefaultBlockCacheBytes))
	hub := events.NewBroadcaster()
	defer hub.Close()
	api, err := startLoopback(tsdb.NewAPIHandlerWithStream(rd, hub))
	if err != nil {
		return err
	}
	defer api.close()
	sse, err := startSSE(ctx, api.url)
	if err != nil {
		return err
	}
	siteClient, apiClient := newHTTPClient(), newHTTPClient()
	defer closeClient(siteClient)
	defer closeClient(apiClient)

	mix := &mixer{rng: rng, maps: wmap.AllMaps(), links: map[wmap.MapID][]string{}, step: snapshotStep}
	for _, m := range in.truth[0] {
		for _, k := range tsdb.LinkKeysOf(m) {
			mix.links[m.ID] = append(mix.links[m.ID], k.ID(m.ID))
		}
	}

	// The live-ingest hook, wired as cmd/wmcollect wires it: one
	// attribution cache and scan scratch shared across the whole crawl.
	var (
		tr        = p.tr
		cache     = extract.NewAttributionCache(extract.DefaultOptions())
		scan      extract.ScanResult
		storedAt  = map[wmap.MapID]time.Time{}
		cycleSpan = -1
		appended  []*wmap.Map // traced only: replayed through the event detector
		nSnap     int
	)
	col := &collect.Collector{BaseURL: in.srv.url, Client: siteClient, Store: store, Maps: wmap.AllMaps(), Retries: 2}
	col.OnStored = func(id wmap.MapID, t time.Time, data []byte) error {
		storedAt[id] = time.Now()
		nSnap++
		var op string
		if tr != nil {
			op = opID(fmt.Sprintf("pass%d/snapshot", pass), nSnap)
		}
		sp := tr.begin("extract.scan", op, cycleSpan)
		err := extract.ScanBytesInto(&scan, data, extract.ScanOptions{})
		tr.end(sp)
		p.layer["extract.scan_bytes"] += float64(len(data))
		if err != nil {
			p.failed++ // a scan drop, as wmcollect counts it
			return nil
		}
		sp = tr.begin("extract.attribute", op, cycleSpan)
		m, err := cache.Attribute(&scan, id, t)
		tr.end(sp)
		if err != nil {
			p.failed++
			return nil
		}
		if cfg.corrupt && nSnap == 2 {
			m.Links[0].LoadAB++ // the self-test's deliberately wrong answer
		}
		sp = tr.begin("tsdb.append", op, cycleSpan)
		err = arch.Append(m)
		tr.end(sp)
		if tr != nil {
			appended = append(appended, m)
		}
		return err
	}

	frontier := 0
	cache0, planner0, grid0 := rd.BlockCache().Stats(), rd.PlannerStats(), rd.GridStats()
	doneMem := p.measureMem()
	var body bytes.Buffer
	ops0, wall0, lat0 := p.ops, p.wall, len(p.latencies)
	for i, t := range in.times {
		if err := ctx.Err(); err != nil {
			return err
		}
		in.site.step.Store(int64(i))
		clear(storedAt)
		t0 := time.Now()
		var op string
		if tr != nil {
			op = opID(fmt.Sprintf("pass%d/cycle", pass), i)
		}
		cycleSpan = tr.begin("collect.collect_at", op, -1)
		st, err := col.CollectAt(t)
		tr.end(cycleSpan)
		if err != nil {
			return err
		}
		p.attempted += int64(len(wmap.AllMaps()))
		p.failed += int64(st.Failed)
		p.layer["collect.fetched"] += float64(st.Fetched + st.NotModified)

		sp := tr.begin("tsdb.commit", op, -1)
		err = arch.Sync()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("tsdb.refresh", op, -1)
		changed, err := rd.Refresh()
		tr.end(sp)
		if err != nil {
			return err
		}
		if changed {
			p.layer["tsdb.refresh_adopted"]++
		}
		sp = tr.begin("events.publish", op, -1)
		evs, n, err := rd.EventsSince(ctx, frontier)
		if err == nil {
			hub.Publish(evs...)
			frontier = n
		}
		tr.end(sp)
		if err != nil {
			return err
		}

		// The freshness probe: every snapshot stored this cycle must be
		// listed by /api/v1/maps now.
		sp = tr.begin("http.maps", op, -1)
		res, d, err := doQuery(ctx, apiClient, api.url, query{class: "maps", path: "/api/v1/maps"}, &body)
		tr.end(sp)
		if err != nil {
			return err
		}
		probed := time.Now()
		p.record("maps", res, d)
		listed := listedUntil(body.Bytes())
		for id, at := range storedAt {
			p.attempted++
			if last, ok := listed[id]; !ok || last.Before(t) {
				p.failed++
				continue
			}
			p.latencies = append(p.latencies, probed.Sub(at))
			p.ops++
		}

		from := in.times[0]
		for k := 0; k < 4; k++ {
			q := mix.next(from, t)
			sp = tr.begin("http."+q.class, op, -1)
			res, d, err := doQuery(ctx, apiClient, api.url, q, &body)
			tr.end(sp)
			if err != nil {
				return err
			}
			p.attempted++
			p.record(q.class, res, d)
			if res.status != http.StatusOK || !res.valid {
				p.failed++
			}
		}
		p.wall += time.Since(t0)
	}
	doneMem()
	p.rates = append(p.rates, float64(p.ops-ops0)/(p.wall-wall0).Seconds())
	p.tails = append(p.tails, percentile(p.latencies[lat0:], 0.99))
	addReadStats(p, rd, cache0, planner0, grid0)
	p.layer["extract.attribute_hits"] += float64(cache.Hits())
	p.layer["extract.attribute_misses"] += float64(cache.Misses())

	// Every event committed this pass must reach the SSE subscriber.
	published := int64(hub.Stats().Published)
	sse.waitFor(published, 10*time.Second)
	delivered := sse.frames.Load()
	p.attempted += published
	p.failed += published - delivered
	logged, err := rd.Events(ctx, tsdb.EventFilter{})
	if err != nil {
		return err
	}
	p.layer["events.detected"] += float64(len(logged))
	p.layer["events.delivered"] += float64(delivered)
	p.layer["events.dropped"] += float64(hub.Stats().Dropped)
	if err := sse.stop(); err != nil {
		return err
	}
	chk.expect(delivered == int64(len(logged)), "crawl pass %d: SSE delivered %d events, the event log holds %d", pass, delivered, len(logged))
	if tr != nil {
		replayDetect(tr, appended)
	}

	if err := arch.Close(); err != nil {
		return err
	}
	st := arch.Stats()
	p.archiveBytes += st.Bytes
	p.archiveSnapshots += int64(st.Snapshots)
	served := in.site.served.Swap(0)
	chk.expect(int64(st.Snapshots) == served, "crawl pass %d: archive holds %d snapshots, the site served %d", pass, st.Snapshots, served)
	return checkCrawlArchive(archPath, in, chk, pass)
}

// record adds one request's latency and size to its class.
func (p *phase) record(class string, res queryResult, d time.Duration) {
	c := p.class(class)
	c.lat = append(c.lat, d)
	c.bytes += int64(res.size)
}

// listedUntil decodes a /api/v1/maps body into each map's newest snapshot.
func listedUntil(body []byte) map[wmap.MapID]time.Time {
	var v struct {
		Maps []struct {
			Map wmap.MapID `json:"map"`
			To  time.Time  `json:"to"`
		} `json:"maps"`
	}
	out := map[wmap.MapID]time.Time{}
	if json.Unmarshal(body, &v) == nil {
		for _, m := range v.Maps {
			out[m.Map] = m.To
		}
	}
	return out
}

// addReadStats adds the read side's counter deltas since the given
// starting values to p.
func addReadStats(p *phase, rd *tsdb.Reader, c0 tsdb.CacheStats, pl0 tsdb.PlannerStats, g0 tsdb.GridStats) {
	c, pl := rd.BlockCache().Stats(), rd.PlannerStats()
	p.layer["tsdb.blockcache_hits"] += float64(c.Hits - c0.Hits)
	p.layer["tsdb.blockcache_misses"] += float64(c.Misses - c0.Misses)
	p.layer["tsdb.blockcache_evictions"] += float64(c.Evictions - c0.Evictions)
	p.layer["tsdb.blockcache_dedups"] += float64(c.InflightDedups - c0.InflightDedups)
	var rolled, raw float64
	for k, n := range pl.Tiers {
		rolled += float64(n - pl0.Tiers[k])
	}
	raw = float64(pl.Raw - pl0.Raw)
	g := rd.GridStats()
	rolled += float64(g.LinksPlanned - g0.LinksPlanned)
	raw += float64(g.LinksRaw - g0.LinksRaw)
	p.layer["planner.rolled"] += rolled
	p.layer["planner.raw"] += raw
	p.layer["tsdb.planner_rollup_share"] = ratio(p.layer["planner.rolled"], p.layer["planner.rolled"]+p.layer["planner.raw"])
}

// replayDetect times the write side's event detection alone by replaying
// the appended maps through fresh per-map detectors, as Writer.Append runs
// them.
func replayDetect(tr *tracer, ms []*wmap.Map) {
	dets := map[wmap.MapID]*events.Detector{}
	for i, m := range ms {
		d := dets[m.ID]
		if d == nil {
			d = events.NewDetector(m.ID, events.DefaultConfig(), nil)
			dets[m.ID] = d
		}
		sp := tr.begin("replay.detect", opID("snapshot", i+1), -1)
		d.Observe(m)
		tr.end(sp)
	}
}

// checkCrawlArchive compares every ingested map with netsim's map for the
// same time: node count and the multiset of links (endpoints, labels and
// both loads).
func checkCrawlArchive(path string, in *crawlInput, chk *checks, pass int) error {
	rd, err := tsdb.OpenFile(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	for j, id := range wmap.AllMaps() {
		cur := rd.Cursor(id, in.times[0], in.times[len(in.times)-1])
		i := 0
		for cur.Next() {
			m := cur.Map()
			if i >= len(in.times) {
				chk.expect(false, "crawl pass %d: %s has an extra snapshot at %s", pass, id, m.Time)
				break
			}
			want := in.truth[i][j]
			chk.expect(m.Time.Equal(want.Time) && len(m.Nodes) == len(want.Nodes) && linkSet(m) == linkSet(want),
				"crawl pass %d: %s at %s differs from netsim", pass, id, want.Time.Format(time.RFC3339))
			i++
		}
		cur.Close()
		if err := cur.Err(); err != nil {
			return err
		}
		chk.expect(i == len(in.times), "crawl pass %d: %s has %d snapshots, want %d", pass, id, i, len(in.times))
	}
	return nil
}

// linkSet canonicalises a map's links (lower endpoint first) into one
// sorted string, so two maps compare as multisets.
func linkSet(m *wmap.Map) string {
	out := make([]string, len(m.Links))
	for i, l := range m.Links {
		if l.A > l.B {
			l.A, l.B, l.LabelA, l.LabelB, l.LoadAB, l.LoadBA = l.B, l.A, l.LabelB, l.LabelA, l.LoadBA, l.LoadAB
		}
		out[i] = fmt.Sprintf("%s|%s|%s|%s|%d|%d", l.A, l.B, l.LabelA, l.LabelB, l.LoadAB, l.LoadBA)
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
