package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ovhweather/internal/netsim"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// The dashboard workload is read-only serving: closed-loop clients send
// the seeded request mix to the query API over an archive of the last
// seven days of all four maps. Only the serve layers work (planner, block
// cache, grid, JSON encode); the per-link working set of decoded blocks is
// larger than the default 64 MiB block cache, so cache policy and decode
// cost show.

const dashboardDays = 7

// dashboardClients is the number of closed-loop clients: one per CPU of
// the 2-vCPU box the benchmark was defined on, fixed so runs on other
// machines send the same load shape.
const dashboardClients = 2

type dashInput struct {
	from, to time.Time
	links    map[wmap.MapID][]string // link ids present at both ends of the archive
	rd       *tsdb.Reader
	srv      *loopback
	bytes    int64
	snaps    int64
}

func (in *dashInput) close() {
	in.srv.close()
	in.rd.Close()
}

// setupDashboard writes the archive straight from netsim maps with the
// default writer (1h/1d rollups and the event log), opens it behind the
// default block cache and starts the query API.
func setupDashboard(path string, small bool) (*dashInput, error) {
	sc := netsim.DefaultScenario()
	in := &dashInput{to: sc.End, from: sc.End.Add(-dashboardDays * 24 * time.Hour)}
	if small {
		in.from = sc.End.Add(-6 * time.Hour)
	}
	sim, err := netsim.New(sc)
	if err != nil {
		return nil, err
	}
	w, err := tsdb.Create(path)
	if err != nil {
		return nil, err
	}
	// netsim generates the next maps while the writer appends.
	maps := make(chan *wmap.Map, 64)
	genErr := make(chan error, 1)
	go func() {
		defer close(maps)
		for t := in.from; !t.After(in.to); t = t.Add(snapshotStep) {
			for _, id := range wmap.AllMaps() {
				m, err := sim.MapAt(id, t)
				if err != nil {
					genErr <- err
					return
				}
				maps <- m
			}
		}
		genErr <- nil
	}()
	first := map[wmap.MapID][]tsdb.LinkKey{}
	var last []*wmap.Map
	var appendErr error
	for m := range maps {
		if appendErr == nil {
			appendErr = w.Append(m)
		}
		if first[m.ID] == nil {
			first[m.ID] = tsdb.LinkKeysOf(m)
		}
		if m.Time.Equal(in.to) {
			last = append(last, m)
		}
	}
	if err := <-genErr; err != nil {
		w.Close()
		return nil, err
	}
	if appendErr != nil {
		w.Close()
		return nil, appendErr
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	in.bytes, in.snaps = w.Stats().Bytes, int64(w.Stats().Snapshots)
	in.links = map[wmap.MapID][]string{}
	for _, m := range last {
		end := map[tsdb.LinkKey]bool{}
		for _, k := range tsdb.LinkKeysOf(m) {
			end[k] = true
		}
		for _, k := range first[m.ID] {
			if end[k] {
				in.links[m.ID] = append(in.links[m.ID], k.ID(m.ID))
			}
		}
	}
	if in.rd, err = tsdb.OpenFile(path); err != nil {
		return nil, err
	}
	in.rd.SetBlockCache(tsdb.NewBlockCache(tsdb.DefaultBlockCacheBytes))
	if in.srv, err = startLoopback(tsdb.NewAPIHandler(in.rd)); err != nil {
		in.rd.Close()
		return nil, err
	}
	return in, nil
}

func runDashboard(ctx context.Context, cfg config, phases []bool) (*report, error) {
	rep := &report{}
	var in *dashInput
	for i := 0; i < cfg.setups(1); i++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, err = setupDashboard(filepath.Join(cfg.work, fmt.Sprintf("dashboard-%d.tsdb", i)), cfg.small); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0))
	}
	defer in.close()

	// Warm the block cache with the same mix (another seed stream), so
	// the measured phases see its steady state.
	warm := newPhase(false)
	if _, err := dashClients(ctx, in, warm, cfg.seed^0x5eed, min(time.Second, cfg.seconds/4)); err != nil {
		return nil, err
	}
	var raws []rawCheck
	for k, traced := range phases {
		p := newPhase(traced)
		c0, pl0, g0 := in.rd.BlockCache().Stats(), in.rd.PlannerStats(), in.rd.GridStats()
		doneMem := p.measureMem()
		grids, err := dashClients(ctx, in, p, cfg.seed*16+int64(k), cfg.seconds)
		if err != nil {
			return nil, err
		}
		doneMem()
		addReadStats(p, in.rd, c0, pl0, g0)
		p.archiveBytes, p.archiveSnapshots = in.bytes, in.snaps
		raws = append(raws, p.raws...)
		if traced {
			replayGrids(ctx, p.tr, in.rd, grids)
		}
		rep.phases = append(rep.phases, p)
	}
	return rep, checkDashboard(ctx, cfg, in, rep, raws)
}

// rawCheck is one raw per-link response's point count and the snapshots
// its window holds.
type rawCheck struct {
	path     string
	points   int
	from, to time.Time
}

// dashClients runs dashboardClients closed-loop clients against in for d and
// adds their requests to p. It returns the grid requests sent.
func dashClients(ctx context.Context, in *dashInput, p *phase, seed int64, d time.Duration) ([]query, error) {
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		grids     []query
		completed []time.Duration // completion offsets, parallel to p.latencies
		first     error
	)
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < dashboardClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cp := newPhase(false)
			mix := &mixer{rng: rand.New(rand.NewSource(seed*64 + int64(c))), maps: wmap.AllMaps(), links: in.links, step: snapshotStep}
			client := newHTTPClient()
			defer closeClient(client)
			var body bytes.Buffer
			var myGrids []query
			var done []time.Duration // completion offsets, parallel to cp.latencies
			var err error
			for n := 0; time.Now().Before(deadline) && err == nil; n++ {
				q := mix.next(in.from, in.to)
				var op string
				if p.tr != nil {
					op = opID(fmt.Sprintf("client%d", c), n)
				}
				sp := p.tr.begin("http."+q.class, op, -1)
				var res queryResult
				var lat time.Duration
				res, lat, err = doQuery(ctx, client, in.srv.url, q, &body)
				p.tr.end(sp)
				if err != nil {
					break
				}
				cp.attempted++
				cp.ops++
				cp.latencies = append(cp.latencies, lat)
				done = append(done, time.Since(t0))
				cp.record(q.class, res, lat)
				if res.status != http.StatusOK || !res.valid {
					cp.failed++
				}
				switch q.class {
				case "link_raw":
					cp.raws = append(cp.raws, rawCheck{q.path, res.points, q.from, q.to})
				case "grid_1h":
					myGrids = append(myGrids, q)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && first == nil {
				first = err
			}
			p.attempted += cp.attempted
			p.ops += cp.ops
			p.failed += cp.failed
			p.latencies = append(p.latencies, cp.latencies...)
			completed = append(completed, done...)
			p.raws = append(p.raws, cp.raws...)
			p.mergeHTTP(cp)
			grids = append(grids, myGrids...)
		}(c)
	}
	wg.Wait()
	p.wall += time.Since(t0)
	p.rates, p.tails = windowStats(p.latencies, completed, d)
	return grids, first
}

// windowStats splits a phase of length d into equal windows of at least
// 1 s, giving each one's completed requests per second, and of at least
// 2 s, giving each one's p99 latency, by the requests' completion offsets.
// A phase shorter than a window is one window.
func windowStats(lat, done []time.Duration, d time.Duration) (rates, tails []float64) {
	nRate, nTail := max(1, int(d/time.Second)), max(1, int(d/(2*time.Second)))
	counts := make([]int, nRate)
	byTail := make([][]time.Duration, nTail)
	for i, at := range done {
		counts[min(int(at*time.Duration(nRate)/d), nRate-1)]++
		w := min(int(at*time.Duration(nTail)/d), nTail-1)
		byTail[w] = append(byTail[w], lat[i])
	}
	for _, n := range counts {
		rates = append(rates, float64(n)/(d/time.Duration(nRate)).Seconds())
	}
	for _, w := range byTail {
		tails = append(tails, percentile(w, 0.99))
	}
	return rates, tails
}

// replayGrids times the grid scan alone by replaying each grid request
// through Reader.GridScan; the grid's encode-and-write share is
// http.grid_1h minus it.
func replayGrids(ctx context.Context, tr *tracer, rd *tsdb.Reader, grids []query) {
	for i, q := range grids {
		sp := tr.begin("replay.grid_scan", opID("grid", i), -1)
		rd.GridScan(ctx, q.id, nil, q.from, q.to, time.Hour, false)
		tr.end(sp)
	}
}

// checkDashboard checks, after the timed phases: every response was a 200
// holding JSON, every raw per-link response holds one point per snapshot
// of its window, and for a seeded sample of links the grid series equal
// the per-link series.
func checkDashboard(ctx context.Context, cfg config, in *dashInput, rep *report, raws []rawCheck) error {
	chk := &rep.checks
	var failed int64
	for _, p := range rep.phases {
		failed += p.failed
	}
	chk.expect(failed == 0, "dashboard: %d responses were not a 200 with a JSON body", failed)
	for i, r := range raws {
		got := r.points
		if cfg.corrupt && i == 0 {
			got-- // the self-test's deliberately short response
		}
		want := int(r.to.Sub(r.from)/snapshotStep) + 1
		chk.expect(got == want, "dashboard: %s returned %d points, its window holds %d snapshots", r.path, got, want)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	client := newHTTPClient()
	defer closeClient(client)
	var body bytes.Buffer
	for _, id := range wmap.AllMaps() {
		links := in.links[id]
		from := in.to.Add(-24 * time.Hour)
		var sample []string
		for _, k := range rng.Perm(len(links))[:min(4, len(links))] {
			sample = append(sample, links[k])
		}
		v := url.Values{"map": {string(id)}, "from": {rfc(from)}, "to": {rfc(in.to)}, "step": {"1h"},
			"links": {strings.Join(sample, ",")}}
		var g struct {
			Links []series `json:"links"`
		}
		if err := getJSON(ctx, client, in.srv.url+"/api/v1/grid?"+v.Encode(), &body, &g); err != nil {
			return err
		}
		grid := map[string]series{}
		for _, s := range g.Links {
			grid[s.ID] = s
		}
		for _, l := range sample {
			var s series
			if err := getJSON(ctx, client, in.srv.url+loadPath(l, from, in.to, "1h"), &body, &s); err != nil {
				return err
			}
			gs, ok := grid[l]
			chk.expect(ok && bytes.Equal(gs.AB, s.AB) && bytes.Equal(gs.BA, s.BA),
				"dashboard: grid series of %s differs from its per-link series", l)
		}
	}
	return nil
}

// series is one link's load arrays, kept as raw JSON for a byte compare.
type series struct {
	ID string          `json:"id"`
	AB json.RawMessage `json:"ab"`
	BA json.RawMessage `json:"ba"`
}

// getJSON GETs u and decodes a 200 body into v.
func getJSON(ctx context.Context, c *http.Client, u string, buf *bytes.Buffer, v any) error {
	res, _, err := doQuery(ctx, c, "", query{path: u}, buf)
	if err != nil {
		return err
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", u, res.status, buf.Bytes())
	}
	return json.Unmarshal(buf.Bytes(), v)
}
