package events

import (
	"math/rand"
	"testing"
	"time"

	"ovhweather/internal/allocbudget"
	"ovhweather/internal/netsim"
	"ovhweather/internal/wmap"
)

// randomTopology draws a small map over a tiny name alphabet, so that
// mutations often collide with existing identities.
func randomTopology(rng *rand.Rand) *wmap.Map {
	names := []string{"fra", "rbx", "sbg", "gra", "peer-x"}
	labels := []string{"", "#1", "#2"}
	m := &wmap.Map{ID: wmap.Europe, Time: base}
	for _, n := range names[:2+rng.Intn(len(names)-1)] {
		m.Nodes = append(m.Nodes, wmap.Node{Name: n, Kind: wmap.KindOfName(n)})
	}
	for i := rng.Intn(6); i >= 0; i-- {
		a, b := rng.Intn(len(m.Nodes)), rng.Intn(len(m.Nodes))
		m.Links = append(m.Links, wmap.Link{
			A: m.Nodes[a].Name, B: m.Nodes[b].Name,
			LabelA: labels[rng.Intn(len(labels))], LabelB: labels[rng.Intn(len(labels))],
			LoadAB: wmap.Load(rng.Intn(101)), LoadBA: wmap.Load(rng.Intn(101)),
		})
	}
	return m
}

// mutate returns a successor of m: new loads always, plus (usually) one
// identity-level edit — some that wmap.Compare sees as churn and some
// (reordering, flipping a link's orientation) that it does not.
func mutate(rng *rand.Rand, m *wmap.Map) *wmap.Map {
	out := m.Clone()
	out.Time = m.Time.Add(5 * time.Minute)
	for i := range out.Links {
		out.Links[i].LoadAB = wmap.Load(rng.Intn(101))
		out.Links[i].LoadBA = wmap.Load(rng.Intn(101))
	}
	n, l := len(out.Nodes), len(out.Links)
	switch rng.Intn(9) {
	case 0: // loads only
	case 1:
		if l > 1 {
			i, j := rng.Intn(l), rng.Intn(l)
			out.Links[i], out.Links[j] = out.Links[j], out.Links[i]
		}
	case 2:
		if l > 0 {
			k := &out.Links[rng.Intn(l)]
			k.A, k.B, k.LabelA, k.LabelB, k.LoadAB, k.LoadBA = k.B, k.A, k.LabelB, k.LabelA, k.LoadBA, k.LoadAB
		}
	case 3: // retarget one identity field of one link
		if l > 0 {
			k := &out.Links[rng.Intn(l)]
			field := []*string{&k.A, &k.B, &k.LabelA, &k.LabelB}[rng.Intn(4)]
			*field = []string{"fra", "rbx", "", "#1", "#2"}[rng.Intn(5)]
		}
	case 4:
		if l > 0 {
			i := rng.Intn(l)
			out.Links = append(out.Links[:i:i], out.Links[i+1:]...)
		}
	case 5:
		if l > 0 {
			out.Links = append(out.Links, out.Links[rng.Intn(l)])
		}
	case 6:
		if n > 1 {
			i, j := rng.Intn(n), rng.Intn(n)
			out.Nodes[i], out.Nodes[j] = out.Nodes[j], out.Nodes[i]
		}
	case 7:
		out.Nodes = append(out.Nodes, wmap.Node{Name: "new-node"})
	case 8:
		if n > 0 {
			out.Nodes[rng.Intn(n)].Name += "-renamed"
		}
	}
	return out
}

// TestChurnFastPathImpliesEmptyDiff is the fast path's soundness property:
// whenever sameTopology lets ChurnTracker.Observe return nil without
// diffing, wmap.Compare finds no topology change either — and Observe as a
// whole still reports a diff exactly when Compare does.
func TestChurnFastPathImpliesEmptyDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fast := 0
	for i := 0; i < 20000; i++ {
		prev := randomTopology(rng)
		m := mutate(rng, prev)
		empty := wmap.Compare(prev, m).Empty()
		if sameTopology(prev, m) {
			fast++
			if !empty {
				t.Fatalf("fast path skipped a topology change:\nprev %+v\nnext %+v", prev, m)
			}
		}
		var c ChurnTracker
		c.Observe(prev)
		if got := c.Observe(m); (got == nil) != empty {
			t.Fatalf("Observe diff=%v, Compare empty=%v:\nprev %+v\nnext %+v", got, empty, prev, m)
		}
	}
	if fast == 0 || fast == 20000 {
		t.Fatalf("fast path taken %d of 20000 times; the property is vacuous", fast)
	}
}

// TestAllocBudgetDetectorObserve pins Detector.Observe on load-only
// successors of a netsim Europe map: once its scratch is warm it must not
// allocate in proportion to the map, so the budget sits far below the
// link count. Loads stay under every threshold, so no event fires.
func TestAllocBudgetDetectorObserve(t *testing.T) {
	sc := netsim.DefaultScenario()
	sim, err := netsim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := sim.MapAt(wmap.Europe, sc.End)
	if err != nil {
		t.Fatal(err)
	}
	if len(m0.Links) < 100 {
		t.Fatalf("Europe has %d links; the budget would not separate O(1) from O(links)", len(m0.Links))
	}
	cfg := DefaultConfig()
	succ := make([]*wmap.Map, 2)
	for s := range succ {
		m := m0.Clone()
		m.Time = sc.End.Add(time.Duration(s) * 5 * time.Minute)
		for i := range m.Links {
			m.Links[i].LoadAB = wmap.Load(int(cfg.DrainLow) + 1 + (7*i+s)%30)
			m.Links[i].LoadBA = wmap.Load(int(cfg.DrainLow) + 1 + (11*i+3*s)%30)
		}
		succ[s] = m
	}
	d := NewDetector(wmap.Europe, cfg, nil)
	for _, m := range succ {
		d.Observe(m)
	}
	call := 0
	allocbudget.Check(t, 50, 2, func() {
		if evs := d.Observe(succ[call%2]); len(evs) != 0 {
			t.Fatalf("load-only successor emitted %v", evs)
		}
		call++
	})
}
