// Package allocbudget is the shared harness of the TestAllocBudget* tests:
// each one pins the steady-state allocation count of a live-ingest stage
// (scan, attribution cache hit, detectors, archive append) so a change that
// brings per-snapshot garbage back fails a test instead of surfacing later
// as a benchmark drift. CI runs them with
//
//	go test -count=1 -run 'TestAllocBudget' ./internal/svg/ ./internal/extract/ ./internal/events/ ./internal/tsdb/
package allocbudget

import "testing"

// Check fails t when fn allocates more than budget objects per call,
// averaged over runs calls by testing.AllocsPerRun, and logs the measured
// average otherwise. It skips under the race detector, whose
// instrumentation allocates on its own.
func Check(t testing.TB, runs int, budget float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	got := testing.AllocsPerRun(runs, fn)
	if got > budget {
		t.Errorf("%.1f allocs per call, budget %.0f", got, budget)
	} else {
		t.Logf("%.1f allocs per call, budget %.0f", got, budget)
	}
}
