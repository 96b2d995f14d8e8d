package ordered

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// drain runs the iterator to the end and returns the delivered values.
func drain[T any](it *Iter[T]) []T {
	var out []T
	for it.Next() {
		out = append(out, it.Value())
	}
	return out
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, workers, want int }{
		{10, 0, min(procs, 10)},
		{10, -1, min(procs, 10)},
		{10, 3, 3},
		{3, 8, 3},
		{0, 4, 0},
		{0, 0, 0},
	} {
		if got := Workers(c.n, c.workers); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestOrderUnderRandomLatency delivers every item in index order although
// fetches finish in random order, and Index tracks the delivered item.
func TestOrderUnderRandomLatency(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8} {
		for _, n := range []int{1, 2, 5, 40} {
			seed := int64(workers*100 + n)
			delays := make([]time.Duration, n)
			rng := rand.New(rand.NewSource(seed))
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
			}
			it := Start(context.Background(), n, workers, func(_, i int) (int, error) {
				time.Sleep(delays[i])
				return i, nil
			})
			k := 0
			for it.Next() {
				if it.Value() != k || it.Index() != k {
					t.Fatalf("workers=%d n=%d: delivery %d is item %d (Index %d)", workers, n, k, it.Value(), it.Index())
				}
				k++
			}
			if err := it.Err(); err != nil || k != n {
				t.Fatalf("workers=%d n=%d: delivered %d, err %v", workers, n, k, err)
			}
		}
	}
}

// TestFetchErrorStopsInOrder fails item k and requires exactly items
// 0..k-1 to arrive before the error, and nothing after it.
func TestFetchErrorStopsInOrder(t *testing.T) {
	boom := errors.New("boom")
	for _, k := range []int{0, 1, 7, 29} {
		it := Start(context.Background(), 30, 4, func(_, i int) (int, error) {
			time.Sleep(time.Duration(rand.Intn(100)) * time.Microsecond)
			if i == k {
				return 0, boom
			}
			return i, nil
		})
		got := drain(it)
		if len(got) != k {
			t.Fatalf("error at %d: %d items delivered first, want %d", k, len(got), k)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("error at %d: delivery %d is item %d", k, i, v)
			}
		}
		if !errors.Is(it.Err(), boom) {
			t.Fatalf("error at %d: Err = %v, want boom", k, it.Err())
		}
		if it.Next() {
			t.Fatalf("error at %d: Next delivered after the error", k)
		}
	}
}

// TestCancelMidStream cancels after m deliveries: the next Next stops with
// ctx.Err(), even when results were already waiting.
func TestCancelMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it := Start(ctx, 100, 4, func(_, i int) (int, error) { return i, nil })
	n := 0
	for it.Next() {
		n++
		if n == 10 {
			time.Sleep(time.Millisecond) // let results pile up in the ring
			cancel()
		}
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", it.Err())
	}
	if n != 10 {
		t.Fatalf("%d items delivered, want exactly the 10 before the cancel", n)
	}
}

// TestCancelAfterLastDelivery: Err is nil exactly when all n items were
// delivered, even if ctx is cancelled afterwards.
func TestCancelAfterLastDelivery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it := Start(ctx, 5, 2, func(_, i int) (int, error) { return i, nil })
	n := 0
	for it.Next() {
		if n++; n == 5 {
			cancel()
		}
	}
	if err := it.Err(); err != nil || n != 5 {
		t.Fatalf("delivered %d, Err = %v; want 5 and nil", n, err)
	}
}

// TestCloseMidStream abandons the iteration: Close joins the pool, later
// Next calls report false and Err reports the early stop.
func TestCloseMidStream(t *testing.T) {
	it := Start(context.Background(), 100, 4, func(_, i int) (int, error) { return i, nil })
	for i := 0; i < 3; i++ {
		if !it.Next() {
			t.Fatal(it.Err())
		}
	}
	it.Close()
	it.Close() // idempotent
	if it.Next() {
		t.Fatal("Next delivered after Close")
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("Err after Close = %v, want context.Canceled", it.Err())
	}
}

// TestEmptyAndOversizedPools covers n = 0 (no goroutines, immediate end)
// and more workers than items (capped at n).
func TestEmptyAndOversizedPools(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // an empty iteration delivers all of its zero items regardless
	it := Start(ctx, 0, 4, func(_, i int) (int, error) {
		t.Error("fetch called for n = 0")
		return 0, nil
	})
	if it.Next() || it.Err() != nil {
		t.Fatalf("n = 0: Next true or Err = %v", it.Err())
	}
	it.Close()

	var maxW atomic.Int64
	it = Start(context.Background(), 3, 16, func(w, i int) (int, error) {
		for {
			m := maxW.Load()
			if int64(w) <= m || maxW.CompareAndSwap(m, int64(w)) {
				break
			}
		}
		return i, nil
	})
	if got := drain(it); len(got) != 3 || it.Err() != nil {
		t.Fatalf("workers > n: delivered %v, err %v", got, it.Err())
	}
	if m := maxW.Load(); m >= 3 {
		t.Fatalf("worker index %d with 3 items: pool not capped at n", m)
	}
}

// TestWorkerIndexExclusive: no two concurrent fetches ever share a w, and
// every w is in range.
func TestWorkerIndexExclusive(t *testing.T) {
	const workers = 4
	var busy [workers]atomic.Bool
	it := Start(context.Background(), 200, workers, func(w, i int) (int, error) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of range", w)
			return i, nil
		}
		if !busy[w].CompareAndSwap(false, true) {
			t.Errorf("two concurrent fetches share worker %d", w)
		}
		time.Sleep(time.Duration(rand.Intn(50)) * time.Microsecond)
		busy[w].Store(false)
		return i, nil
	})
	if got := drain(it); len(got) != 200 || it.Err() != nil {
		t.Fatalf("delivered %d, err %v", len(got), it.Err())
	}
}

// TestRunAheadBound: with a slow consumer, items in flight plus fetched but
// undelivered never exceed workers+2.
func TestRunAheadBound(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var started atomic.Int64
		it := Start(context.Background(), 60, workers, func(_, i int) (int, error) {
			started.Add(1)
			return i, nil
		})
		delivered, peak := int64(0), int64(0)
		for it.Next() {
			delivered++
			time.Sleep(200 * time.Microsecond) // the workers fill the ring meanwhile
			peak = max(peak, started.Load()-delivered)
		}
		if it.Err() != nil || delivered != 60 {
			t.Fatalf("workers=%d: delivered %d, err %v", workers, delivered, it.Err())
		}
		if bound := int64(workers + 2); peak > bound {
			t.Errorf("workers=%d: %d items fetched ahead of the consumer, bound %d", workers, peak, bound)
		}
	}
}

// slowFetch keeps every worker busy long enough for Close to catch the pool
// mid-stream.
func slowFetch(_, i int) (int, error) {
	time.Sleep(100 * time.Microsecond)
	return i, nil
}

// liveWorkers counts the pool goroutines that still hold work: parked (in a
// fetch, waiting for an index, sending a result) or inside slowFetch.
// runtime.Stack stops the world, and a worker caught after its deferred
// WaitGroup.Done — the join signal — shows as runnable with no pool work
// left; the runtime frees it a few instructions later, and under -race the
// scheduler may resume the joined consumer first, so a bare
// runtime.NumGoroutine right after Close is not a deterministic check.
func liveWorkers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("created by ovhweather/internal/ordered.Start")) {
			continue
		}
		header, _, _ := bytes.Cut(g, []byte("\n"))
		if bytes.Contains(header, []byte("[runnable]")) && !bytes.Contains(g, []byte("ordered.slowFetch(")) {
			continue // past the join signal, on its way out
		}
		n++
	}
	return n
}

// TestJoinOnReturn: no pool goroutine holds work the moment Close — or a
// Next that reports false — returns, with no polling.
func TestJoinOnReturn(t *testing.T) {
	it := Start(context.Background(), 50, 4, slowFetch)
	it.Next()
	it.Close()
	if g := liveWorkers(); g > 0 {
		t.Errorf("%d pool goroutines alive after Close", g)
	}

	ctx, cancel := context.WithCancel(context.Background())
	it = Start(ctx, 50, 4, slowFetch)
	it.Next()
	cancel()
	if it.Next() {
		t.Fatal("Next delivered after cancel")
	}
	if g := liveWorkers(); g > 0 {
		t.Errorf("%d pool goroutines alive after a cancelled Next", g)
	}

	it = Start(context.Background(), 50, 4, slowFetch)
	drain(it)
	if g := liveWorkers(); g > 0 {
		t.Errorf("%d pool goroutines alive after a full drain", g)
	}

	// The check itself sees a pool that is not joined.
	it = Start(context.Background(), 50, 4, slowFetch)
	it.Next()
	if liveWorkers() == 0 {
		t.Error("no pool goroutine seen mid-stream: the check is blind")
	}
	it.Close()
}
