package tsdb

import (
	"path/filepath"
	"testing"
	"time"

	"ovhweather/internal/allocbudget"
	"ovhweather/internal/netsim"
	"ovhweather/internal/wmap"
)

// TestAllocBudgetWriterAppend pins the live-ingest steady state of
// Writer.Append: the four netsim maps appended in turn, a Sync after every
// round as wmcollect commits once per poll cycle, loads changing every time
// but staying clear of every event threshold. Raw columns, rollups and
// the event detectors must cost a bounded number of allocations per
// snapshot, not a few per link (Europe alone has hundreds of load
// columns).
func TestAllocBudgetWriterAppend(t *testing.T) {
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	var maps []*wmap.Map
	for _, id := range wmap.AllMaps() {
		m, err := sim.MapAt(id, sc.End)
		if err != nil {
			t.Fatal(err)
		}
		maps = append(maps, m)
	}
	w, err := OpenAppend(filepath.Join(t.TempDir(), "live.tsdb"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	call := 0
	appendNext := func() {
		m := maps[call%len(maps)]
		step := call / len(maps)
		m.Time = sc.End.Add(time.Duration(step) * 5 * time.Minute)
		for i := range m.Links {
			m.Links[i].LoadAB = wmap.Load(3 + (7*i+step)%30)
			m.Links[i].LoadBA = wmap.Load(3 + (11*i+3*step)%30)
		}
		if err := w.Append(m); err != nil {
			t.Fatal(err)
		}
		call++
		if call%len(maps) == 0 {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for call < 4*len(maps) { // warm the detectors' double buffers
		appendNext()
	}
	allocbudget.Check(t, 200, 64, appendNext)
}
