package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ovhweather/internal/analysis"
	"ovhweather/internal/dataset"
	"ovhweather/internal/extract"
	"ovhweather/internal/netsim"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

// The reprocess workload is the paper's batch path: what `wmparse -archive`
// plus `wmanalyze -archive` do. Set-up renders the whole scenario timeline
// at a weekly step for all four maps into a dataset store; each timed pass
// converts every SVG to YAML with Store.ProcessMapParallel, emits the maps
// into a fresh archive, and folds Figures 4 and 5 from that archive. The
// topology changes between most weekly snapshots, so Algorithm 2 (the
// attribution) misses its cache often.
//
// Some Europe snapshots of the default scenario cannot be rendered (the
// layout leaves link ends ambiguous). They are counted in render.failed
// and failed_share, not avoided.

const reprocessStep = 7 * 24 * time.Hour

// reprocessMap is the map Figures 4 and 5 fold, as wmanalyze's default.
const reprocessMap = wmap.Europe

type reprocInput struct {
	store    *dataset.Store
	root     string
	rendered map[wmap.MapID]int
	total    int
	rs       renderStats
}

func setupReprocess(dir string, small bool) (*reprocInput, error) {
	sc := netsim.DefaultScenario()
	end := sc.End
	if small {
		end = sc.Start.AddDate(0, 2, 0)
	}
	sim, err := netsim.New(sc)
	if err != nil {
		return nil, err
	}
	var ms []*wmap.Map
	for _, id := range wmap.AllMaps() {
		for t := sc.Start; !t.After(end); t = t.Add(reprocessStep) {
			m, err := sim.MapAt(id, t)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
	}
	svgs, rs := renderAll(ms, 2)
	in := &reprocInput{root: dir, rendered: map[wmap.MapID]int{}, rs: rs}
	if in.store, err = dataset.Open(dir); err != nil {
		return nil, err
	}
	for i, m := range ms {
		if svgs[i] == nil {
			continue
		}
		if err := in.store.WriteSnapshot(m.ID, m.Time, dataset.ExtSVG, svgs[i]); err != nil {
			return nil, err
		}
		in.rendered[m.ID]++
		in.total++
	}
	return in, nil
}

func runReprocess(ctx context.Context, cfg config, phases []bool) (*report, error) {
	rep := &report{}
	var in *reprocInput
	for i := 0; i < cfg.setups(1); i++ {
		if in != nil {
			os.RemoveAll(in.root)
		}
		t0 := time.Now()
		var err error
		if in, err = setupReprocess(filepath.Join(cfg.work, fmt.Sprintf("dataset-%d", i)), cfg.small); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0))
	}
	rep.setupLayer = in.rs.layer()
	rep.renderFailed = int64(in.rs.failed)
	pass := 0
	for _, traced := range phases {
		p := newPhase(traced)
		for p.wall < cfg.seconds {
			pass++
			if err := reprocessPass(ctx, cfg, in, p, &rep.checks, pass); err != nil {
				return nil, err
			}
		}
		rep.phases = append(rep.phases, p)
	}
	return rep, nil
}

// reprocessPass runs the batch job once into a fresh archive and a
// YAML-free store, then checks it.
func reprocessPass(ctx context.Context, cfg config, in *reprocInput, p *phase, chk *checks, pass int) error {
	tr := p.tr
	archPath := filepath.Join(cfg.work, fmt.Sprintf("reprocess-%d.tsdb", pass))
	defer os.Remove(archPath)
	var op string
	if tr != nil {
		op = opID("pass", pass)
	}
	doneMem := p.measureMem()
	lat0 := len(p.latencies)
	t0 := time.Now()
	w, err := tsdb.Create(archPath)
	if err != nil {
		return err
	}
	defer w.Close()
	var reports []dataset.ProcessReport
	var appended []*wmap.Map // traced only: replayed through the event detector
	for _, id := range wmap.AllMaps() {
		parent := tr.begin("dataset.process", op, -1)
		emitted := 0
		prev := time.Now()
		r, err := in.store.ProcessMapParallel(ctx, id, dataset.ProcessOptions{
			Workers: 2,
			Extract: extract.DefaultOptions(),
			Progress: func(done, total int) {
				if done > 0 {
					now := time.Now()
					p.latencies = append(p.latencies, now.Sub(prev))
					prev = now
				}
			},
			Emit: func(m *wmap.Map) error {
				emitted++
				if cfg.corrupt && emitted == 1 {
					return nil // the self-test's deliberately lost snapshot
				}
				sp := tr.begin("tsdb.append", op, parent)
				err := w.Append(m)
				tr.end(sp)
				if tr != nil {
					appended = append(appended, m)
				}
				return err
			},
		})
		tr.end(parent)
		if err != nil {
			return err
		}
		reports = append(reports, r)
	}
	if err := w.Close(); err != nil {
		return err
	}
	rd, err := tsdb.OpenFile(archPath)
	if err != nil {
		return err
	}
	defer rd.Close()
	rd.SetBlockCache(tsdb.NewBlockCache(tsdb.DefaultBlockCacheBytes))
	fig5 := netsim.DefaultScenario().Start.AddDate(0, 6, 0) // wmanalyze's Figure 5 week
	if cfg.small {
		fig5 = netsim.DefaultScenario().Start.AddDate(0, 1, 0)
	}
	infra, err := figureFolds(ctx, rd, fig5, tr, op)
	if err != nil {
		return err
	}
	d := time.Since(t0)
	doneMem()
	p.wall += d

	// Outside the timings: counters, checks and the YAML clean-up that
	// makes the next pass process every snapshot again.
	var processed, failed, hits, misses int
	for _, r := range reports {
		processed += r.Processed
		failed += r.Failed()
		hits += r.CacheHits
		misses += r.CacheMisses
	}
	p.ops += int64(processed)
	p.rates = append(p.rates, float64(processed)/d.Seconds())
	p.tails = append(p.tails, percentile(p.latencies[lat0:], 0.99))
	p.attempted += int64(processed + failed)
	p.failed += int64(failed)
	st := w.Stats()
	p.archiveBytes += st.Bytes
	p.archiveSnapshots += int64(st.Snapshots)
	p.layer["extract.attribute_hits"] += float64(hits)
	p.layer["extract.attribute_misses"] += float64(misses)
	p.layer["dataset.snapshots"] += float64(processed)
	if tr != nil {
		replayDetect(tr, appended)
	}
	chk.expect(failed == 0, "reprocess pass %d: ProcessReport shows %d failures", pass, failed)
	chk.expect(st.Snapshots == in.total, "reprocess pass %d: archive holds %d snapshots, %d were rendered", pass, st.Snapshots, in.total)
	if last, ok := infra.Routers.Last(); !ok || (!cfg.small && last.V != 113) {
		chk.expect(false, "reprocess pass %d: Figure 4 ends with %v Europe routers, Table 1 has 113", pass, last.V)
	}
	yamlBytes, err := removeYAML(in.root)
	p.layer["dataset.yaml_bytes"] = float64(yamlBytes)
	return err
}

// figureFolds runs wmanalyze's Figure 4 and Figure 5 folds for the
// analyzed map over the archive, Figure 5 over the week from fig5, and
// returns the Figure 4 series.
func figureFolds(ctx context.Context, rd *tsdb.Reader, fig5 time.Time, tr *tracer, op string) (*analysis.InfraSeries, error) {
	stream := func(from, to time.Time) analysis.Stream {
		return func(yield func(*wmap.Map) error) error {
			cur := rd.CursorParallel(ctx, reprocessMap, from, to, 2)
			defer cur.Close()
			for cur.Next() {
				if err := yield(cur.MapView()); err != nil {
					return err
				}
			}
			return cur.Err()
		}
	}
	colStream := func(from, to time.Time) analysis.ColumnStream {
		return func(yield func(*analysis.LinkColumns) error) error {
			var lc analysis.LinkColumns
			return rd.GridColumns(ctx, reprocessMap, from, to, func(c *tsdb.GridChunk) error {
				lc.Times = lc.Times[:0]
				for _, u := range c.Times {
					lc.Times = append(lc.Times, time.Unix(u, 0).UTC())
				}
				lc.Links = lc.Links[:0]
				for i := range c.Links {
					lc.Links = append(lc.Links, analysis.LinkCol{Link: c.Links[i], AB: c.AB[i], BA: c.BA[i]})
				}
				return yield(&lc)
			})
		}
	}
	sc := netsim.DefaultScenario()
	var infra *analysis.InfraSeries
	fold := func(f func() error) error {
		sp := tr.begin("analysis.fold", op, -1)
		defer tr.end(sp)
		return f()
	}
	// Figure 4: infrastructure evolution, degree CCDF of the last
	// snapshot, site growth.
	err := fold(func() error {
		var err error
		if infra, err = analysis.Infrastructure(stream(sc.Start, sc.End)); err != nil {
			return err
		}
		var last *wmap.Map
		if err := stream(sc.End, sc.End)(func(m *wmap.Map) error { last = m.Clone(); return nil }); err != nil {
			return err
		}
		if last != nil {
			if _, err := analysis.DegreeCCDF(last); err != nil {
				return err
			}
		}
		_, err = analysis.SiteGrowthStudy(stream(sc.Start, sc.End))
		return err
	})
	if err != nil {
		return nil, err
	}
	// Figure 5: loads over one week, as wmanalyze folds it.
	from, to := fig5, fig5.AddDate(0, 0, 7)
	err = fold(func() error {
		if _, err := analysis.HourlyLoads(stream(from, to)); err != nil {
			return err
		}
		if _, err := analysis.LoadCDF(stream(from, to)); err != nil {
			return err
		}
		if _, err := analysis.ImbalanceCDFColumns(colStream(from, to), wmap.PaperImbalanceOptions()); err != nil {
			return err
		}
		if _, err := analysis.CongestionStudy(stream(from, to), analysis.DefaultCongestionOptions()); err != nil {
			return err
		}
		_, err := analysis.WeeklyLoadsColumns(colStream(from, from.AddDate(0, 0, 14)))
		return err
	})
	return infra, err
}

// removeYAML deletes the store's YAML outputs and returns their total size.
func removeYAML(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "."+dataset.ExtYAML) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return os.Remove(path)
	})
	return total, err
}
