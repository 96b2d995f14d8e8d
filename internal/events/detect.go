package events

import (
	"cmp"
	"slices"
	"time"

	"ovhweather/internal/peeringdb"
	"ovhweather/internal/wmap"
)

// ChurnTracker diffs consecutive snapshots of one map. It is the single
// implementation of snapshot-to-snapshot topology comparison, shared by
// the offline ChurnStudy fold and the live Detector.
type ChurnTracker struct {
	prev *wmap.Map
}

// Observe feeds the next snapshot and returns the topology diff from the
// previous one, or nil when this is the first snapshot or nothing beyond
// loads changed.
func (c *ChurnTracker) Observe(m *wmap.Map) *wmap.Diff {
	prev := c.prev
	c.prev = m
	if prev == nil || sameTopology(prev, m) {
		return nil
	}
	if d := wmap.Compare(prev, m); !d.Empty() {
		return d
	}
	return nil
}

// sameTopology is the load-only fast path of Observe: when both snapshots
// list the same node names and the same link identities (A, B, LabelA,
// LabelB) in the same order, the node sets and the link multisets are
// equal, so wmap.Compare's diff is empty by construction. Consecutive
// snapshots almost always pass, which spares Compare's maps; any other
// difference (reordering included) falls back to Compare.
func sameTopology(a, b *wmap.Map) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i].Name != b.Nodes[i].Name {
			return false
		}
	}
	for i := range a.Links {
		la, lb := &a.Links[i], &b.Links[i]
		if la.A != lb.A || la.B != lb.B || la.LabelA != lb.LabelA || la.LabelB != lb.LabelB {
			return false
		}
	}
	return true
}

// Prev returns the previously observed snapshot (nil before the first).
func (c *ChurnTracker) Prev() *wmap.Map { return c.prev }

// UpgradeTracker watches the parallel-link count toward one peering and
// fires the paper's Figure 6 arrows: A when the count steps up, C when the
// added link first carries traffic. It is shared by UpgradeStudy and the
// live Detector; the per-observation semantics are exactly the offline
// fold's.
type UpgradeTracker struct {
	prevCount int
	hasPrev   bool
	// Added is arrow A (parallel count increased); Activated is arrow C
	// (every parallel carries traffic at or after Added).
	Added     time.Time
	Activated time.Time
}

// Observe feeds the peering's directed egress loads at snapshot time t.
// Call it only for snapshots where the peering has links (len(loads) > 0),
// matching the offline fold, which skips absent snapshots.
func (u *UpgradeTracker) Observe(t time.Time, loads []wmap.Load) (addedNow, activatedNow bool) {
	if u.hasPrev && len(loads) > u.prevCount && u.Added.IsZero() {
		u.Added = t
		addedNow = true
	}
	if !u.Added.IsZero() && u.Activated.IsZero() && !t.Before(u.Added) {
		all := true
		for _, l := range loads {
			if l == 0 {
				all = false
				break
			}
		}
		if all {
			u.Activated = t
			activatedNow = true
		}
	}
	u.prevCount, u.hasPrev = len(loads), true
	return addedNow, activatedNow
}

// Rearm clears a completed upgrade so the tracker can detect the next
// one, keeping the link-count memory.
func (u *UpgradeTracker) Rearm() {
	u.Added, u.Activated = time.Time{}, time.Time{}
}

// Direction is one directed load reading of one physical link: endpoints,
// the label on the from side, and the link's position among the parallels
// between the same endpoints (labels alone are not unique on the real map).
type Direction struct {
	From, To string
	Label    string
	Ordinal  int
	Load     wmap.Load
}

// EachDirection visits both directions of every link of a snapshot in
// deterministic (link slice) order, assigning parallel ordinals exactly
// the way the congestion fold always has: the ordinal counter for an
// endpoint pair advances once per physical link, in both orientations.
func EachDirection(m *wmap.Map, fn func(Direction)) {
	eachDirection(m, make(map[[2]string]int), fn)
}

// eachDirection is EachDirection counting ordinals in the caller's empty
// map, so a detector can reuse one map across snapshots.
func eachDirection(m *wmap.Map, ordinals map[[2]string]int, fn func(Direction)) {
	for _, l := range m.Links {
		fn(Direction{From: l.A, To: l.B, Label: l.LabelA, Ordinal: ordinals[[2]string{l.A, l.B}], Load: l.LoadAB})
		fn(Direction{From: l.B, To: l.A, Label: l.LabelB, Ordinal: ordinals[[2]string{l.B, l.A}], Load: l.LoadBA})
		ordinals[[2]string{l.A, l.B}]++
		ordinals[[2]string{l.B, l.A}]++
	}
}

// DirKey identifies one direction of one physical link across snapshots.
type DirKey struct {
	From, To string
	Label    string
	Ordinal  int
}

// Key returns the cross-snapshot identity of the direction.
func (d Direction) Key() DirKey {
	return DirKey{From: d.From, To: d.To, Label: d.Label, Ordinal: d.Ordinal}
}

// Emitted is one event plus the snapshot time at which the detector
// decided it was final. Time and EmitTime differ only for debounced churn
// (the event carries the change time; emission waits out the window).
// EmitTime orders events against the archive's commit frontier: a resumed
// ingest re-detects the whole committed prefix and keeps exactly the
// events with EmitTime past the last persisted frame.
type Emitted struct {
	Event
	EmitTime time.Time
}

// churnKey identifies one pending debounced change: a node by name, or a
// parallel-link identity (orientation-normalized by wmap.Compare).
type churnKey struct {
	node           string
	a, b           string
	labelA, labelB string
}

func compareChurnKeys(k, o churnKey) int {
	if c := cmp.Compare(k.node, o.node); c != 0 {
		return c
	}
	if c := cmp.Compare(k.a, o.a); c != 0 {
		return c
	}
	if c := cmp.Compare(k.b, o.b); c != 0 {
		return c
	}
	if c := cmp.Compare(k.labelA, o.labelA); c != 0 {
		return c
	}
	return cmp.Compare(k.labelB, o.labelB)
}

func compareGroupKeys(k, o [2]string) int {
	if c := cmp.Compare(k[0], o[0]); c != 0 {
		return c
	}
	return cmp.Compare(k[1], o[1])
}

// pendingChurn accumulates the net delta of one topology element inside
// its debounce window.
type pendingChurn struct {
	first time.Time // when the change was first seen
	delta int       // net count change; 0 means the flap cancelled out
}

// maintGroup is the previous snapshot's load vector of one directed
// parallel group, the state the make-before-break signature is matched
// against.
type maintGroup struct {
	labels []string
	loads  []wmap.Load
}

// Detector runs every event state machine over one map's snapshot stream.
// Feed snapshots in chronological order through Observe; each call
// returns the events that became final at that snapshot, in a
// deterministic order. Detector is not safe for concurrent use.
//
// Observe allocates nothing in proportion to the map on a load-only
// successor: the churn fast path skips wmap.Compare, and the per-snapshot
// working sets (parallel ordinals, maintenance groups, sort keys, peering
// loads) live in scratch buffers reused from snapshot to snapshot.
//
// A Detector must never be copied: its trackers and maps are one
// causally ordered state machine, and a value copy forks that history
// (wmlint's sharded analyzer enforces this).
//
//wm:nocopy
type Detector struct {
	id  wmap.MapID
	cfg Config
	db  *peeringdb.DB

	churn     ChurnTracker
	pending   map[churnKey]*pendingChurn
	congested map[DirKey]bool
	// maint is the previous snapshot's groups. maintNext is the spare
	// buffer: it holds older groups, and the next snapshot's groups are
	// rebuilt into it in place.
	maint, maintNext map[[2]string]*maintGroup
	peers            map[string]*UpgradeTracker

	// Scratch reused by every Observe.
	ordinals  map[[2]string]int
	churnKeys []churnKey
	groupKeys [][2]string
	names     []string
	loads     []wmap.Load
}

// NewDetector returns a detector for one map. db may be nil, in which
// case upgrade events are never Confirmed.
func NewDetector(id wmap.MapID, cfg Config, db *peeringdb.DB) *Detector {
	return &Detector{
		id:        id,
		cfg:       cfg,
		db:        db,
		pending:   make(map[churnKey]*pendingChurn),
		congested: make(map[DirKey]bool),
		maint:     make(map[[2]string]*maintGroup),
		maintNext: make(map[[2]string]*maintGroup),
		peers:     make(map[string]*UpgradeTracker),
		ordinals:  make(map[[2]string]int),
	}
}

// eachDirection is EachDirection over the detector's reused ordinal map.
func (d *Detector) eachDirection(m *wmap.Map, fn func(Direction)) {
	clear(d.ordinals)
	eachDirection(m, d.ordinals, fn)
}

// Observe feeds the next snapshot and returns the newly final events.
// The returned slice is freshly allocated and owned by the caller.
func (d *Detector) Observe(m *wmap.Map) []Emitted {
	var out []Emitted
	prev := d.churn.Prev()
	diff := d.churn.Observe(m)
	out = d.observeChurn(out, m.Time, diff)
	out = d.observeCongestion(out, m)
	out = d.observeMaintenance(out, prev, m)
	out = d.observeUpgrades(out, m)
	// Render each event's summary exactly once, here, so the string is
	// built at detection time and travels with the event through the
	// archive cache, the broadcaster, and every response that serves it.
	for i := range out {
		out[i].Event.Summary = out[i].Event.Summarize()
	}
	return out
}

// observeChurn merges the snapshot's diff into the pending set, cancels
// flaps, and emits the entries whose debounce window has elapsed.
func (d *Detector) observeChurn(out []Emitted, t time.Time, diff *wmap.Diff) []Emitted {
	if diff != nil {
		add := func(k churnKey, delta int) {
			p := d.pending[k]
			if p == nil {
				d.pending[k] = &pendingChurn{first: t, delta: delta}
				return
			}
			p.delta += delta
		}
		for _, n := range diff.NodesAdded {
			add(churnKey{node: n.Name}, 1)
		}
		for _, n := range diff.NodesRemoved {
			add(churnKey{node: n.Name}, -1)
		}
		for _, l := range diff.LinksAdded {
			add(churnKey{a: l.A, b: l.B, labelA: l.LabelA, labelB: l.LabelB}, l.Count)
		}
		for _, l := range diff.LinksRemoved {
			add(churnKey{a: l.A, b: l.B, labelA: l.LabelA, labelB: l.LabelB}, -l.Count)
		}
	}
	if len(d.pending) == 0 {
		return out
	}
	keys := d.churnKeys[:0]
	for k := range d.pending {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareChurnKeys)
	d.churnKeys = keys
	for _, k := range keys {
		p := d.pending[k]
		if p.delta == 0 { // the flap cancelled itself inside the window
			delete(d.pending, k)
			continue
		}
		if t.Before(p.first.Add(d.cfg.ChurnDebounce)) {
			continue
		}
		delete(d.pending, k)
		out = append(out, Emitted{EmitTime: t, Event: Event{
			Map: d.id, Type: TypeChurn, Time: p.first,
			Node: k.node, A: k.a, B: k.b, LabelA: k.labelA, LabelB: k.labelB,
			Delta: p.delta,
		}})
	}
	return out
}

// observeCongestion applies the hysteresis thresholds to every direction.
func (d *Detector) observeCongestion(out []Emitted, m *wmap.Map) []Emitted {
	d.eachDirection(m, func(dir Direction) {
		k := dir.Key()
		hot := d.congested[k]
		switch {
		case !hot && dir.Load >= d.cfg.CongestionOn:
			d.congested[k] = true
			out = append(out, Emitted{EmitTime: m.Time, Event: Event{
				Map: d.id, Type: TypeCongestionOnset, Time: m.Time,
				A: dir.From, B: dir.To, LabelA: dir.Label, Ordinal: dir.Ordinal,
				Load: dir.Load,
			}})
		case hot && dir.Load < d.cfg.CongestionOff:
			delete(d.congested, k)
			out = append(out, Emitted{EmitTime: m.Time, Event: Event{
				Map: d.id, Type: TypeCongestionClear, Time: m.Time,
				A: dir.From, B: dir.To, LabelA: dir.Label, Ordinal: dir.Ordinal,
				Load: dir.Load,
			}})
		}
	})
	return out
}

// observeMaintenance matches the make-before-break signature: within a
// directed parallel group of unchanged membership, one member's load
// collapses from >= DrainHigh to <= DrainLow while the siblings' combined
// load absorbs at least half of what drained.
//
// The groups are double-buffered: this snapshot's are rebuilt in the map
// that held the groups of the snapshot before the previous one, reusing
// its group structs and slices, and groups absent from this snapshot are
// dropped afterwards.
func (d *Detector) observeMaintenance(out []Emitted, prev, m *wmap.Map) []Emitted {
	groups := d.maintNext
	for _, g := range groups {
		g.labels, g.loads = g.labels[:0], g.loads[:0]
	}
	d.eachDirection(m, func(dir Direction) {
		k := [2]string{dir.From, dir.To}
		g := groups[k]
		if g == nil {
			g = &maintGroup{}
			groups[k] = g
		}
		g.labels = append(g.labels, dir.Label)
		g.loads = append(g.loads, dir.Load)
	})
	for k, g := range groups {
		if len(g.loads) == 0 {
			delete(groups, k)
		}
	}
	if prev != nil {
		keys := d.groupKeys[:0]
		for k := range groups {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, compareGroupKeys)
		d.groupKeys = keys
		for _, k := range keys {
			cur, old := groups[k], d.maint[k]
			if old == nil || len(old.loads) != len(cur.loads) || len(cur.loads) < 2 {
				continue // membership changed (or no parallels): not a drain
			}
			var sumOld, sumCur int
			for i := range cur.loads {
				sumOld += int(old.loads[i])
				sumCur += int(cur.loads[i])
			}
			for i := range cur.loads {
				if old.loads[i] < d.cfg.DrainHigh || cur.loads[i] > d.cfg.DrainLow {
					continue
				}
				othersOld := sumOld - int(old.loads[i])
				othersCur := sumCur - int(cur.loads[i])
				if 2*othersCur < 2*othersOld+int(old.loads[i]) {
					continue // the load vanished instead of moving: not make-before-break
				}
				out = append(out, Emitted{EmitTime: m.Time, Event: Event{
					Map: d.id, Type: TypeMaintenance, Time: m.Time,
					A: k[0], B: k[1], LabelA: cur.labels[i], Ordinal: i,
					Load: old.loads[i],
				}})
			}
		}
	}
	d.maint, d.maintNext = groups, d.maint
	return out
}

// observeUpgrades advances the per-peering trackers.
func (d *Detector) observeUpgrades(out []Emitted, m *wmap.Map) []Emitted {
	names := d.names[:0]
	for _, n := range m.Nodes {
		if n.Kind == wmap.Peering {
			names = append(names, n.Name)
		}
	}
	slices.Sort(names)
	d.names = names
	loads := d.loads
	for _, name := range names {
		loads = loads[:0]
		for _, l := range m.Links {
			switch name {
			case l.B:
				loads = append(loads, l.LoadAB) // egress from the backbone side
			case l.A:
				loads = append(loads, l.LoadBA)
			}
		}
		if len(loads) == 0 {
			continue
		}
		tr := d.peers[name]
		if tr == nil {
			tr = &UpgradeTracker{}
			d.peers[name] = tr
		}
		prevCount := tr.prevCount
		addedNow, activatedNow := tr.Observe(m.Time, loads)
		if addedNow {
			ev := Event{
				Map: d.id, Type: TypeUpgrade, Time: m.Time,
				Node: name, Delta: len(loads) - prevCount,
			}
			if d.db != nil {
				for _, up := range d.db.UpgradesBetween(m.Time.Add(-d.cfg.DBWindow), m.Time.Add(d.cfg.DBWindow)) {
					if up.Peering == name {
						ev.Confirmed = true
						ev.Gbps = up.GbpsAfter
						break
					}
				}
			}
			out = append(out, Emitted{EmitTime: m.Time, Event: ev})
		}
		if activatedNow {
			tr.Rearm()
		}
	}
	d.loads = loads
	return out
}
