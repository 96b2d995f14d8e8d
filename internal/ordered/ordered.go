// Package ordered is the one fan-out primitive of the pipeline: fetch items
// 0..n-1 on a bounded pool of worker goroutines and hand the results to a
// single consumer strictly in index order. Every parallel path that must
// preserve time order runs on it — the archive's block scans (cursors, the
// raw link stream, both grid legs, rollup totals) and the dataset's YAML
// walk and SVG→YAML processing — which is what keeps each of them
// byte-identical to its sequential form.
//
// The contract:
//
//   - Order: results are delivered strictly in index order.
//   - Errors: a fetch error at index i surfaces after items 0..i-1 were
//     delivered, and nothing after i is delivered.
//   - Cancellation: Err is nil exactly when all n items were delivered;
//     otherwise it is the fetch error, or ctx.Err() once ctx is cancelled.
//   - Run-ahead: at most workers+2 items are fetching or fetched but not
//     yet delivered, so a slow consumer bounds the pipeline's memory.
//   - Join: Close, and Next returning false, return only after every
//     goroutine the pool started has exited.
package ordered

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for n items: workers <= 0
// means runtime.GOMAXPROCS(0), and the result never exceeds n.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

type result[T any] struct {
	v   T
	err error
}

// Iter delivers the results of one Start in index order. Next, Value,
// Index, Err and Close belong to the consumer and must be called from one
// goroutine.
type Iter[T any] struct {
	ctx   context.Context
	n     int
	slots []chan result[T] // ring: item i lands in slots[i%len(slots)]
	jobs  chan int         // dispatched indexes the workers have not claimed
	stop  atomic.Bool      // set once the consumer is done; workers fetch nothing more
	wg    sync.WaitGroup
	next  int // index Next delivers next
	v     T
	err   error
	done  bool
}

// Start fetches items 0..n-1 on Workers(n, workers) goroutines and returns
// the iterator that delivers them in order. fetch receives the worker's
// index w in [0, Workers(n, workers)) along with the item index i: no two
// concurrent fetches share a w, so fetch may keep per-worker state that is
// not safe for concurrent use in a slice indexed by w.
//
//wm:hotpath
func Start[T any](ctx context.Context, n, workers int, fetch func(w, i int) (T, error)) *Iter[T] {
	it := &Iter[T]{ctx: ctx, n: n}
	workers = Workers(n, workers)
	if workers == 0 {
		it.done = true
		return it
	}
	// The ring holds the run-ahead bound: item i is dispatched only after
	// item i-k was delivered, so its slot is empty by then and each slot
	// holds at most one result.
	k := min(workers+2, n)
	it.slots = make([]chan result[T], k)
	for s := range it.slots {
		it.slots[s] = make(chan result[T], 1)
	}
	it.jobs = make(chan int, k)
	for i := 0; i < k; i++ {
		//lint:ignore wmlint/ctxflow jobs has capacity k and receives these k sends before any worker starts
		it.jobs <- i
	}
	if k == n {
		close(it.jobs) // every index is dispatched: idle workers exit early
	}
	it.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer it.wg.Done()
			for i := range it.jobs {
				if it.stop.Load() || ctx.Err() != nil {
					return
				}
				v, err := fetch(w, i)
				//lint:ignore wmlint/ctxflow item i-k was delivered before i was dispatched, so this capacity-1 slot is empty
				it.slots[i%k] <- result[T]{v: v, err: err}
			}
		}()
	}
	return it
}

// Next advances to the next item in index order, reporting false once all
// n items were delivered, a fetch failed, or ctx was cancelled (see Err).
//
//wm:hotpath
func (it *Iter[T]) Next() bool {
	if it.done {
		return false
	}
	if it.next == it.n {
		it.finish(nil)
		return false
	}
	k := len(it.slots)
	var r result[T]
	select {
	case r = <-it.slots[it.next%k]:
	case <-it.ctx.Done():
	}
	// A cancellation wins over a result that was ready at the same time.
	if err := it.ctx.Err(); err != nil {
		it.finish(err)
		return false
	}
	if r.err != nil {
		it.finish(r.err)
		return false
	}
	if i := it.next + k; i < it.n {
		it.jobs <- i // never blocks: at most k indexes are outstanding and this delivery freed one
		if i == it.n-1 {
			close(it.jobs)
		}
	}
	it.v = r.v
	it.next++
	return true
}

// Value returns the item Next advanced to.
func (it *Iter[T]) Value() T { return it.v }

// Index returns the index of the item Next advanced to.
func (it *Iter[T]) Index() int { return it.next - 1 }

// Err returns nil when all n items were delivered, the fetch error that
// stopped the iteration, ctx.Err() after a cancellation, or
// context.Canceled after an early Close.
func (it *Iter[T]) Err() error { return it.err }

// Close stops the iteration early and waits for the workers to exit; fetches
// already running finish first. It is idempotent and a no-op after Next
// returned false.
func (it *Iter[T]) Close() {
	if !it.done {
		it.finish(context.Canceled)
	}
}

// finish records the outcome and joins the workers.
func (it *Iter[T]) finish(err error) {
	it.done, it.err = true, err
	it.stop.Store(true)
	if it.next+len(it.slots) < it.n { // jobs is closed once index n-1 is dispatched
		close(it.jobs)
	}
	it.wg.Wait()
}
