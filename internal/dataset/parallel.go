// The concurrent processing layer: the paper's pipeline turns ~695k
// five-minute SVG snapshots into YAML topologies, and both directions of
// that conversion are embarrassingly parallel per input — each snapshot's
// extract→marshal→write chain (and each YAML decode on the way back) touches
// only its own files. ProcessMapParallel and WalkMapsParallel both run on
// the ordered worker pool (internal/ordered): snapshots are processed or
// decoded concurrently and consumed in chronological order. Both thread a
// context through so a failing walk or Ctrl-C aborts in-flight workers
// cleanly.
//
// Concurrency contract: a Store holds no mutable state — every method may be
// called concurrently. WriteSnapshot stays atomic (temp file + rename), so
// concurrent writers of the same snapshot are last-writer-wins with no torn
// files, and cancellation can never leave a half-written YAML behind.
package dataset

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ovhweather/internal/extract"
	"ovhweather/internal/ordered"
	"ovhweather/internal/wmap"
)

// ProcessOptions configures a batch-processing run.
type ProcessOptions struct {
	// Workers is the worker-pool size; zero or negative means
	// runtime.GOMAXPROCS(0). Workers == 1 reproduces the sequential
	// ProcessMap behaviour exactly, including the progress-call sequence.
	Workers int

	// Extract tunes Algorithms 1 and 2 (see extract.Options).
	Extract extract.Options

	// Progress, when non-nil, observes completion: it is called once with
	// (0, total) before processing starts and once after every finished
	// snapshot with a monotonically increasing done count. Calls are
	// serialized; Progress must not call back into the processing run.
	Progress func(done, total int)

	// Emit, when non-nil, receives every successfully processed snapshot in
	// chronological order — including snapshots skipped because their YAML
	// already existed, which are loaded back so a resumed run still emits
	// the complete series. Calls are serialized on a single goroutine; an
	// Emit error cancels the run and is returned. This is how a tsdb.Writer
	// (whose Append requires per-map chronological order) taps the pipeline.
	Emit func(*wmap.Map) error

	// EmitFrom, when non-zero and Emit is set, skips every snapshot at or
	// before it entirely — no processing, no YAML load-back, no emission.
	// A follow-mode ingester sets it to the archive's last appended time
	// each poll cycle, so the incremental cost of a cycle is proportional
	// to the snapshots that actually arrived, not to the whole corpus.
	EmitFrom time.Time
}

// ProcessMapParallel is ProcessMap with a bounded worker pool: snapshot
// entries fan out to opt.Workers goroutines, each running the independent
// extract→marshal→write chain, and the per-class counters are aggregated
// under a mutex as each snapshot completes. Because every counter is a
// commutative sum, the resulting ProcessReport is deterministic regardless
// of scheduling.
//
// Cancelling ctx stops scheduling new snapshots, drains the in-flight
// workers, and returns ctx.Err() with the partial report. Snapshots already
// fully written stay in place (the run is resumable — existing YAMLs count
// as processed on the next run) and WriteSnapshot's atomicity guarantees no
// half-written YAML survives the abort.
func (s *Store) ProcessMapParallel(ctx context.Context, id wmap.MapID, opt ProcessOptions) (ProcessReport, error) {
	rep := ProcessReport{Map: id}
	entries, err := s.Index(id, ExtSVG)
	if err != nil {
		return rep, err
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if opt.Emit != nil && !opt.EmitFrom.IsZero() {
		// Entries are chronological: drop the prefix the emitter already has.
		lo := sort.Search(len(entries), func(i int) bool { return entries[i].Time.After(opt.EmitFrom) })
		entries = entries[lo:]
	}
	total := len(entries)
	if opt.Progress != nil {
		opt.Progress(0, total)
	}

	// Per-worker attribution cache and scratch buffers: each worker consumes
	// snapshots in roughly chronological order, so consecutive jobs usually
	// share a topology and hit the cache. Worker-local state also keeps the
	// hot loop lock-free.
	caches := make([]*extract.AttributionCache, ordered.Workers(total, opt.Workers))
	scratch := make([]procScratch, len(caches))
	for w := range caches {
		caches[w] = extract.NewAttributionCache(opt.Extract)
	}
	var (
		mu   sync.Mutex
		done int
	)
	pool := ordered.Start(ctx, total, opt.Workers, func(w, i int) (*wmap.Map, error) {
		out, m := s.processSnapshot(id, entries[i].Time, caches[w], &scratch[w], opt.Emit != nil)
		mu.Lock()
		out.count(&rep)
		done++
		if opt.Progress != nil {
			opt.Progress(done, total)
		}
		mu.Unlock()
		return m, nil
	})
	for pool.Next() {
		if m := pool.Value(); m != nil {
			if err = opt.Emit(m); err != nil {
				pool.Close()
				err = fmt.Errorf("dataset: emitting %s at %s: %w", id, entries[pool.Index()].Time, err)
				break
			}
		}
	}
	if err == nil {
		err = pool.Err()
	}
	// The pool has joined its workers: the caches are quiescent.
	for _, c := range caches {
		rep.CacheHits += c.Hits()
		rep.CacheMisses += c.Misses()
	}
	return rep, err
}

// WalkMapsParallel is WalkMaps with concurrent decoding: workers goroutines
// load and unmarshal YAML snapshots while fn still receives every map in
// chronological order, with at most workers+2 decoded snapshots held ahead
// of the fold.
//
// A decoding failure or an error from fn cancels the in-flight workers and
// is returned; cancelling ctx aborts the walk with ctx.Err(). workers <= 0
// means runtime.GOMAXPROCS(0); workers == 1 behaves like WalkMaps.
func (s *Store) WalkMapsParallel(ctx context.Context, id wmap.MapID, workers int, fn func(*wmap.Map) error) error {
	entries, err := s.Index(id, ExtYAML)
	if err != nil {
		return err
	}
	pool := ordered.Start(ctx, len(entries), workers, func(_, i int) (*wmap.Map, error) {
		m, err := s.LoadMap(id, entries[i].Time)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s at %s: %w", id, entries[i].Time, err)
		}
		return m, nil
	})
	defer pool.Close()
	for pool.Next() {
		if err := fn(pool.Value()); err != nil {
			return err
		}
	}
	return pool.Err()
}
