package tsdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log"
	"math"
	"os"
	"sort"
	"time"

	"ovhweather/internal/events"
	"ovhweather/internal/peeringdb"
	"ovhweather/internal/wmap"
)

// DefaultBlockPoints is how many snapshots one block holds at most; a block
// also closes early whenever its map's topology changes, since every block
// references exactly one dictionary entry.
const DefaultBlockPoints = 512

// frameHeader locates one data frame — raw block, rollup block or event
// frame — and names its map. Every footer-index row embeds one; see
// writeFrame and readFrame for the framing it describes.
type frameHeader struct {
	mapRef     uint64 // string-table id of the map id
	offset     int64  // file offset of the frame's length prefix
	payloadLen int
}

// blockMeta is one footer-index row: everything a reader needs to decide
// whether a block overlaps a query and to fetch it, without decoding it.
type blockMeta struct {
	frameHeader
	topoIndex int
	baseUnix  int64 // first snapshot time, unix seconds
	lastUnix  int64 // last snapshot time, unix seconds
	points    int
	links     int
}

// openBlock accumulates one map's current window before encoding.
type openBlock struct {
	topoIndex int
	times     []int64
	// 2L columns: link i stores AB at 2i, BA at 2i+1. Every column is a
	// capacity-clipped window of one slab, so all of them grow together.
	cols [][]uint8
}

// reserve makes room for one more point in every column. The columns fill
// in lock step, so they run out of room together; the slab is then
// replaced by one twice as deep, costing one allocation per doubling
// instead of one per column. The first slab is one point deep, not
// DefaultBlockPoints: a live writer flushes a one-point block at every
// per-cycle Sync, and reprocessing at a weekly step cuts a block at almost
// every snapshot, so a full-depth slab would mostly go unused.
func (ob *openBlock) reserve() {
	if len(ob.cols) == 0 || len(ob.cols[0]) < cap(ob.cols[0]) {
		return
	}
	n := len(ob.cols[0])
	depth := max(2*n, 1)
	slab := make([]uint8, len(ob.cols)*depth)
	for c, col := range ob.cols {
		win := slab[c*depth : c*depth+n : (c+1)*depth]
		copy(win, col)
		ob.cols[c] = win
	}
}

// ArchiveStats summarizes an archive for logs, tests, and benchmarks.
// Blocks counts raw blocks only; RollupBlocks and EventBlocks count the
// pre-aggregated rollup blocks and event-log frames interleaved with them.
type ArchiveStats struct {
	Blocks       int
	RollupBlocks int
	EventBlocks  int
	Snapshots    int
	Topologies   int
	Strings      int
	Bytes        int64
}

// Writer builds an archive by appending snapshots. Appends must be
// chronological per map (maps may interleave freely); Close flushes the
// open blocks and writes the footer — an unclosed archive has no footer and
// is rejected by the reader as truncated. Writer is not safe for concurrent
// use; the parallel pipeline serializes emission before it reaches Append.
type Writer struct {
	w      io.Writer
	bw     *bufio.Writer // non-nil when Create wrapped a file
	closer io.Closer
	off    int64
	err    error // sticky: first write failure poisons the writer
	closed bool

	// Live-append state (OpenAppend); see checkpoint.go for the protocol.
	f         *os.File
	live      bool
	ckptPath  string
	version   uint64 // last published commit version
	committed int64  // data length the last checkpoint covered

	blockPoints int

	strIDs map[string]uint64
	strs   []string

	topos    []*topology
	topoByFP map[uint64][]int

	open  map[wmap.MapID]*openBlock
	last  map[wmap.MapID]int64
	index []blockMeta

	// Block-encoding scratch reused by every flushBlock: the encoded
	// columns, their end offsets, and the payload (writeAll's io.Writer
	// must not retain it).
	colScratch     []byte
	colEnds        []int
	payloadScratch []byte

	// resumed flips at the first append/sync/close (ensureResumed): the
	// rollup resolutions and event options are frozen from then on, and on
	// a resumed archive the rollup accumulators and event detectors have
	// been rebuilt by one replay of the committed raw blocks.
	resumed bool

	// Rollup tier state; see rollup.go.
	rollupRes []int64 // tier resolutions in seconds, ascending
	rollups   []rollupMeta
	accs      map[wmap.MapID][]*rollupAcc

	// Event-log state; see event_log.go.
	evEnabled bool
	evDB      *peeringdb.DB
	detectors map[wmap.MapID]*events.Detector
	evPending map[wmap.MapID][]events.Event
	evIndex   []eventMeta

	snapshots int
}

// NewWriter returns a Writer emitting the archive to w.
func NewWriter(w io.Writer) *Writer {
	res := make([]int64, len(DefaultRollupResolutions))
	for i, r := range DefaultRollupResolutions {
		res[i] = int64(r / time.Second)
	}
	return &Writer{
		w:           w,
		blockPoints: DefaultBlockPoints,
		strIDs:      make(map[string]uint64),
		topoByFP:    make(map[uint64][]int),
		open:        make(map[wmap.MapID]*openBlock),
		last:        make(map[wmap.MapID]int64),
		rollupRes:   res,
		accs:        make(map[wmap.MapID][]*rollupAcc),
		evEnabled:   true,
		detectors:   make(map[wmap.MapID]*events.Detector),
		evPending:   make(map[wmap.MapID][]events.Event),
	}
}

// Create creates (or truncates) an archive file at path.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	w := NewWriter(bw)
	w.bw, w.closer = bw, f
	return w, nil
}

// OpenAppend opens path as a live archive for appending, creating it when
// absent. It is the single-writer end of the live-append protocol: every
// flushed block is followed by a durable checkpoint commit, concurrent
// Readers tail the growing archive via Refresh, and Close turns the result
// into a byte-for-byte normal closed archive.
//
// OpenAppend recovers whatever state a previous writer left behind:
//
//   - An empty or missing file starts a fresh archive.
//   - A checkpointed (live) archive resumes from its last commit; any
//     uncommitted tail past the committed offset — a torn write from a
//     crash mid-append — is truncated away. The last committed block's
//     checksum is re-verified so damage inside the committed prefix
//     surfaces here as a *CorruptError rather than as a wrong read later.
//   - A closed archive is reopened: its footer becomes the first
//     checkpoint, then the footer and tail are truncated off and blocks
//     append where the data section ended. (The checkpoint is committed
//     before the truncate, so a crash between the two still recovers.)
//
// Anything else — a file that is neither empty, nor checkpointed, nor a
// valid closed archive — fails with a typed *CorruptError. Recovery never
// silently drops committed data: it restores exactly the committed prefix
// or refuses.
func OpenAppend(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	w := NewWriter(nil)
	w.f, w.closer, w.live = f, f, true
	w.ckptPath = CheckpointPath(path)
	if err := w.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(w.off, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	w.w, w.bw = bw, bw
	return w, nil
}

// recover restores the writer's in-memory state (string table, topology
// dictionary, block index, per-map clocks) from the archive's durable
// commit state and truncates any uncommitted tail.
func (w *Writer) recover() error {
	ck, err := readCheckpoint(w.ckptPath)
	switch {
	case err == nil:
		return w.recoverCheckpoint(ck)
	case errors.Is(err, fs.ErrNotExist):
	default:
		return err
	}
	fi, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	if fi.Size() == 0 {
		return nil // fresh archive
	}
	// No checkpoint and a non-empty file: only a valid closed archive is
	// acceptable. Turn its footer into the first commit, then truncate the
	// footer and tail off so blocks append where the data section ended.
	// Commit-before-truncate keeps every crash point recoverable.
	footer, footerStart, err := readClosedFooter(w.f, fi.Size())
	if err != nil {
		return err
	}
	fd, err := parseFooterData(footer, footerStart, footerStart)
	if err != nil {
		return err
	}
	w.version = 1
	if err := writeCheckpoint(w.ckptPath, footerStart, w.version, footer); err != nil {
		return err
	}
	if err := w.f.Truncate(footerStart); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	w.off, w.committed = footerStart, footerStart
	w.restore(fd)
	return nil
}

// recoverCheckpoint resumes from a live commit record: verify the
// committed prefix is intact, truncate the uncommitted tail, rebuild state.
func (w *Writer) recoverCheckpoint(ck *checkpoint) error {
	fd, err := openCommitted(w.f, ck)
	if err != nil {
		return err
	}
	if err := verifyTailBlock(w.f, fd, ck.dataEnd); err != nil {
		return err
	}
	if err := w.f.Truncate(ck.dataEnd); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	w.off, w.committed, w.version = ck.dataEnd, ck.dataEnd, ck.version
	w.restore(fd)
	return nil
}

// verifyTailBlock re-checks the committed tail against the checkpoint's
// indexes: frames are written contiguously and the checkpoint commits
// right after a flush event, so the highest-offset frame — raw block,
// rollup block, or event frame — must end exactly at the committed offset.
// The last raw block and every rollup/event frame past it (a flush event
// writes its rollup fragments and event frame right after the raw block)
// are re-read through readFrame, so a torn write anywhere in the committed
// tail surfaces here as a *CorruptError. Damage deeper in the committed
// prefix is still caught by per-frame CRCs at read time.
func verifyTailBlock(r io.ReaderAt, fd *footerData, dataEnd int64) error {
	if len(fd.blocks) == 0 {
		if len(fd.rollups) != 0 || len(fd.events) != 0 {
			return corruptf(dataEnd, "checkpoint indexes rollup or event frames but no raw blocks")
		}
		if dataEnd != int64(len(headerMagic)) {
			return corruptf(dataEnd, "checkpoint commits %d bytes but indexes no blocks", dataEnd)
		}
		return nil
	}
	last := &fd.blocks[0].frameHeader
	for i := range fd.blocks[1:] {
		if h := &fd.blocks[1+i].frameHeader; h.offset > last.offset {
			last = h
		}
	}
	tail := []*frameHeader{last}
	for i := range fd.rollups {
		if h := &fd.rollups[i].frameHeader; h.offset > last.offset {
			tail = append(tail, h)
		}
	}
	for i := range fd.events {
		if h := &fd.events[i].frameHeader; h.offset > last.offset {
			tail = append(tail, h)
		}
	}
	sort.Slice(tail, func(a, b int) bool { return tail[a].offset < tail[b].offset })
	end := last.offset
	for _, h := range tail {
		if h.offset != end {
			return corruptf(h.offset, "frame at %d not contiguous with committed tail at %d", h.offset, end)
		}
		end = h.offset + frameOverhead + int64(h.payloadLen)
	}
	if end != dataEnd {
		return corruptf(dataEnd, "last committed frame ends at %d, checkpoint commits %d", end, dataEnd)
	}
	for _, h := range tail {
		if _, err := readFrame(r, dataEnd, h, "committed frame"); err != nil {
			return err
		}
	}
	return nil
}

// restore rebuilds the writer's interning tables and clocks from parsed
// footer data, as if every indexed block had just been flushed.
func (w *Writer) restore(fd *footerData) {
	w.strs = fd.strs
	for i, s := range fd.strs {
		w.strIDs[s] = uint64(i)
	}
	w.topos = fd.topos
	for i, t := range fd.topos {
		fp := fingerprintTopology(t.nodes, t.links)
		w.topoByFP[fp] = append(w.topoByFP[fp], i)
	}
	w.index = fd.blocks
	w.rollups = fd.rollups
	w.evIndex = fd.events
	for i := range fd.blocks {
		m := &fd.blocks[i]
		id := wmap.MapID(fd.strs[m.mapRef])
		if lt, ok := w.last[id]; !ok || m.lastUnix > lt {
			w.last[id] = m.lastUnix
		}
		w.snapshots += m.points
	}
}

// ensureResumed runs once, at the first append, sync or close — late
// enough that SetRollupResolutions and SetEventDetection still apply after
// OpenAppend, which freezes them from then on. On a resumed archive it
// rebuilds what a commit does not store, the open rollup buckets and the
// event detectors' history, by one replay of the committed raw blocks.
func (w *Writer) ensureResumed() error {
	if w.resumed {
		return nil
	}
	w.resumed = true
	if len(w.index) == 0 || w.f == nil {
		return nil
	}
	return w.replay()
}

// replay decodes each committed raw block at most once, in flush order
// (chronological per map), and feeds its points to two consumers:
//
//   - the rollup accumulators, with the points newer than each (map,
//     resolution) tier's frontier: the newest point any flushed rollup
//     block of that tier covers. A block at or before every tier's
//     frontier is not decoded for them. Topology changes crossed here
//     (possible when migrating a v1 archive) retire runs into the done
//     queue, which flushes at the first flush event.
//   - the event detectors, with every point, because detector state
//     (hysteresis sets, debounce pendings, upgrade trackers) depends on
//     the whole history. Emissions after the map's event frontier (the
//     newest lastPoint of its flushed frames) are pended again.
//
// At every commit the flushed frames cover exactly the points and
// emissions up to the frontiers, so the rebuilt state equals the crashed
// writer's and the resumed byte stream matches a writer that never
// stopped. A corrupt block disables, for this writer, each consumer that
// needed it (logged) instead of failing the resume: recovery guarantees
// only the committed tail, and deeper damage surfaces when read.
func (w *Writer) replay() error {
	rollFront := make(map[wmap.MapID]map[int64]int64)
	for i := range w.rollups {
		m := &w.rollups[i]
		id := wmap.MapID(w.strs[m.mapRef])
		byRes := rollFront[id]
		if byRes == nil {
			byRes = make(map[int64]int64)
			rollFront[id] = byRes
		}
		if m.lastPoint > byRes[m.res] {
			byRes[m.res] = m.lastPoint
		}
	}
	evFront := make(map[wmap.MapID]int64)
	for i := range w.evIndex {
		m := &w.evIndex[i]
		id := wmap.MapID(w.strs[m.mapRef])
		if cur, ok := evFront[id]; !ok || m.lastPoint > cur {
			evFront[id] = m.lastPoint
		}
	}
	for i := range w.index {
		bm := &w.index[i]
		id := wmap.MapID(w.strs[bm.mapRef])
		var accs []*rollupAcc
		if w.rollupEnabled() {
			accs = w.rollupAccs(id)
		}
		minS := int64(math.MaxInt64)
		for _, acc := range accs {
			s, ok := rollFront[id][acc.res]
			if !ok {
				s = -1
			}
			minS = min(minS, s)
		}
		if bm.lastUnix <= minS {
			accs = nil
		}
		if len(accs) == 0 && !w.evEnabled {
			continue
		}
		db, err := decodeBlockAt(w.f, w.off, bm, nil)
		var ce *CorruptError
		switch {
		case errors.As(err, &ce):
			if len(accs) > 0 {
				log.Printf("tsdb: resume: cannot rebuild rollup state, disabling rollups for this writer: %v", err)
				w.rollupRes, w.accs = nil, make(map[wmap.MapID][]*rollupAcc)
			}
			if w.evEnabled {
				log.Printf("tsdb: resume: cannot rebuild event state, disabling event detection for this writer: %v", err)
				w.evEnabled = false
				w.detectors = make(map[wmap.MapID]*events.Detector)
				w.evPending = make(map[wmap.MapID][]events.Event)
			}
			continue
		case err != nil:
			return err
		}
		cols := 2 * bm.links
		topo := w.topos[bm.topoIndex]
		var det *events.Detector
		if w.evEnabled {
			det = w.detector(id)
		}
		evFr, ok := evFront[id]
		if !ok {
			evFr = -1
		}
		for pi, t := range db.times {
			for _, acc := range accs {
				if s, ok := rollFront[id][acc.res]; ok && t <= s {
					continue
				}
				acc.retire(bm.topoIndex)
				b := acc.addPoint(bm.topoIndex, t, cols)
				for c := 0; c < cols; c++ {
					b.observe(c, uint8(db.cols[c][pi]))
				}
			}
			if det == nil {
				continue
			}
			m := &wmap.Map{
				ID: id, Time: time.Unix(t, 0).UTC(),
				Nodes: append([]wmap.Node(nil), topo.nodes...),
				Links: append([]wmap.Link(nil), topo.links...),
			}
			for li := range m.Links {
				m.Links[li].LoadAB = db.cols[2*li][pi]
				m.Links[li].LoadBA = db.cols[2*li+1][pi]
			}
			for _, e := range det.Observe(m) {
				if e.EmitTime.Unix() > evFr {
					w.evPending[id] = append(w.evPending[id], e.Event)
				}
			}
		}
	}
	return nil
}

// SetBlockPoints overrides the per-block snapshot capacity. It only affects
// blocks opened after the call; tests use it to force block rotation.
func (w *Writer) SetBlockPoints(n int) {
	if n > 0 {
		w.blockPoints = n
	}
}

// Stats returns the running totals; Bytes is final only after Close.
func (w *Writer) Stats() ArchiveStats {
	return ArchiveStats{
		Blocks:       len(w.index),
		RollupBlocks: len(w.rollups),
		EventBlocks:  len(w.evIndex),
		Snapshots:    w.snapshots,
		Topologies:   len(w.topos),
		Strings:      len(w.strs),
		Bytes:        w.off,
	}
}

// intern returns the string-table id of s, adding it on first sight.
func (w *Writer) intern(s string) uint64 {
	if id, ok := w.strIDs[s]; ok {
		return id
	}
	id := uint64(len(w.strs))
	w.strIDs[s] = id
	w.strs = append(w.strs, s)
	return id
}

// internTopology returns the dictionary index of the snapshot's topology,
// adding a new entry (and interning its strings) when unseen.
func (w *Writer) internTopology(m *wmap.Map) (int, error) {
	fp := fingerprintTopology(m.Nodes, m.Links)
	for _, i := range w.topoByFP[fp] {
		if w.topos[i].equalMap(m) {
			return i, nil
		}
	}
	t, err := newTopology(m)
	if err != nil {
		return 0, err
	}
	for _, n := range t.nodes {
		w.intern(n.Name)
	}
	for _, l := range t.links {
		w.intern(l.A)
		w.intern(l.B)
		w.intern(l.LabelA)
		w.intern(l.LabelB)
	}
	idx := len(w.topos)
	w.topos = append(w.topos, t)
	w.topoByFP[fp] = append(w.topoByFP[fp], idx)
	return idx, nil
}

// Append records one snapshot. The snapshot must be later than the map's
// previous one (ErrOutOfOrder otherwise) and carry loads in [0, 100].
func (w *Writer) Append(m *wmap.Map) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	if m == nil || m.ID == "" {
		return fmt.Errorf("tsdb: snapshot without a map id")
	}
	t := m.Time.Unix()
	if t < 0 {
		return fmt.Errorf("tsdb: %s snapshot at %s: pre-1970 timestamps unsupported", m.ID, m.Time.UTC())
	}
	if lt, ok := w.last[m.ID]; ok && t <= lt {
		return fmt.Errorf("tsdb: %s snapshot at %s not after previous: %w", m.ID, m.Time.UTC(), ErrOutOfOrder)
	}
	for i, l := range m.Links {
		if !l.LoadAB.Valid() || !l.LoadBA.Valid() {
			return fmt.Errorf("tsdb: %s snapshot at %s: link %d (%s-%s) load out of [0, 100]",
				m.ID, m.Time.UTC(), i, l.A, l.B)
		}
	}
	if err := w.ensureResumed(); err != nil {
		return err
	}
	ti, err := w.internTopology(m)
	if err != nil {
		return err
	}
	// Flush events happen before the new point is accumulated anywhere, so
	// the rollup state observed at a raw-block flush is identical whether
	// the flush was triggered by rotation here or by an earlier Sync — the
	// invariant behind live-vs-batch byte identity.
	topoChanged := w.rollupEnabled() && w.rollupTopoChanged(m.ID, ti)
	ob := w.open[m.ID]
	rotated := false
	if ob != nil && (ob.topoIndex != ti || len(ob.times) >= w.blockPoints) {
		if err := w.flushBlock(m.ID, ob); err != nil {
			return err
		}
		rotated = true
		ob = nil
	}
	if topoChanged {
		for _, acc := range w.accs[m.ID] {
			acc.retire(ti)
		}
	}
	if rotated || topoChanged {
		if err := w.flushRollups(m.ID, false); err != nil {
			return err
		}
		if err := w.flushEvents(m.ID); err != nil {
			return err
		}
		// A live archive publishes a durable commit after every block that
		// rotates out (and after topology-change fragments), so tailing
		// readers lag by at most one open block.
		if w.live {
			if err := w.commit(); err != nil {
				return err
			}
		}
	}
	if ob == nil {
		ob = &openBlock{topoIndex: ti, cols: make([][]uint8, 2*len(m.Links))}
		w.open[m.ID] = ob
	}
	ob.times = append(ob.times, t)
	ob.reserve()
	for i, l := range m.Links {
		ob.cols[2*i] = append(ob.cols[2*i], uint8(l.LoadAB))
		ob.cols[2*i+1] = append(ob.cols[2*i+1], uint8(l.LoadBA))
	}
	if w.rollupEnabled() {
		w.rollupAdd(m.ID, ti, t, m.Links)
	}
	if w.evEnabled {
		w.evObserve(m)
	}
	w.last[m.ID] = t
	w.snapshots++
	return nil
}

// writeAll writes every buffer, tracking the file offset; the first failure
// poisons the writer.
func (w *Writer) writeAll(bufs ...[]byte) error {
	for _, b := range bufs {
		n, err := w.w.Write(b)
		w.off += int64(n)
		if err != nil {
			w.err = fmt.Errorf("tsdb: write: %w", err)
			return w.err
		}
	}
	return nil
}

// ensureHeader emits the file magic before the first block or the footer.
func (w *Writer) ensureHeader() error {
	if w.off > 0 {
		return nil
	}
	return w.writeAll([]byte(headerMagic))
}

// writeFrame writes one data frame — u32le payloadLen, payload, u32le
// CRC32(payload) — after the file magic if nothing precedes it, and
// returns the header its index row embeds. Raw blocks, rollup blocks and
// event frames all go through it; only their payloads differ.
func (w *Writer) writeFrame(id wmap.MapID, payload []byte) (frameHeader, error) {
	if len(payload) > math.MaxInt32 {
		return frameHeader{}, fmt.Errorf("tsdb: frame payload of %d bytes exceeds the frame limit", len(payload))
	}
	if err := w.ensureHeader(); err != nil {
		return frameHeader{}, err
	}
	h := frameHeader{mapRef: w.intern(string(id)), offset: w.off, payloadLen: len(payload)}
	var prefix, sum [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	return h, w.writeAll(prefix[:], payload, sum[:])
}

// flushBlock encodes and writes one raw block, whose payload is:
//
//	uvarint mapRef, topoIndex, baseUnix, pointCount n, linkCount L
//	uvarint timeColLen, 2L × uvarint colLen   (the column directory)
//	time column: n-1 uvarint deltas (seconds, strictly positive)
//	2L load columns: uvarint first value, n-1 zigzag varint deltas
func (w *Writer) flushBlock(id wmap.MapID, ob *openBlock) error {
	n := len(ob.times)
	if n == 0 {
		return nil
	}
	L := len(ob.cols) / 2
	// The time column and the load columns are encoded back to back into
	// one reused buffer; ends[c] is where column c ends (the time column is
	// c = 0), which gives the directory's lengths.
	cols, ends := w.colScratch[:0], w.colEnds[:0]
	for i := 1; i < n; i++ {
		cols = binary.AppendUvarint(cols, uint64(ob.times[i]-ob.times[i-1]))
	}
	ends = append(ends, len(cols))
	for _, col := range ob.cols {
		cols = binary.AppendUvarint(cols, uint64(col[0]))
		for i := 1; i < len(col); i++ {
			cols = binary.AppendVarint(cols, int64(col[i])-int64(col[i-1]))
		}
		ends = append(ends, len(cols))
	}
	w.colScratch, w.colEnds = cols, ends

	payload := w.payloadScratch[:0]
	payload = binary.AppendUvarint(payload, w.intern(string(id)))
	payload = binary.AppendUvarint(payload, uint64(ob.topoIndex))
	payload = binary.AppendUvarint(payload, uint64(ob.times[0]))
	payload = binary.AppendUvarint(payload, uint64(n))
	payload = binary.AppendUvarint(payload, uint64(L))
	prev := 0
	for _, end := range ends {
		payload = binary.AppendUvarint(payload, uint64(end-prev))
		prev = end
	}
	payload = append(payload, cols...)
	w.payloadScratch = payload
	h, err := w.writeFrame(id, payload)
	if err != nil {
		return err
	}
	w.index = append(w.index, blockMeta{frameHeader: h, topoIndex: ob.topoIndex,
		baseUnix: ob.times[0], lastUnix: ob.times[n-1], points: n, links: L})
	return nil
}

// encodeFooter renders the string table, the prefix-delta topology table,
// and the block index.
func (w *Writer) encodeFooter() []byte {
	buf := binary.AppendUvarint(nil, uint64(len(w.strs)))
	for _, s := range w.strs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}

	buf = binary.AppendUvarint(buf, uint64(len(w.topos)))
	var prev *topology
	for _, t := range w.topos {
		np, lp := 0, 0
		if prev != nil {
			for np < len(prev.nodes) && np < len(t.nodes) && prev.nodes[np] == t.nodes[np] {
				np++
			}
			for lp < len(prev.links) && lp < len(t.links) && prev.links[lp] == t.links[lp] {
				lp++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(np))
		buf = binary.AppendUvarint(buf, uint64(len(t.nodes)-np))
		for _, n := range t.nodes[np:] {
			buf = binary.AppendUvarint(buf, w.strIDs[n.Name])
			kind := byte(0)
			if n.Kind == wmap.Peering {
				kind = 1
			}
			buf = append(buf, kind)
		}
		buf = binary.AppendUvarint(buf, uint64(lp))
		buf = binary.AppendUvarint(buf, uint64(len(t.links)-lp))
		for _, l := range t.links[lp:] {
			buf = binary.AppendUvarint(buf, w.strIDs[l.A])
			buf = binary.AppendUvarint(buf, w.strIDs[l.B])
			buf = binary.AppendUvarint(buf, w.strIDs[l.LabelA])
			buf = binary.AppendUvarint(buf, w.strIDs[l.LabelB])
		}
		prev = t
	}

	buf = binary.AppendUvarint(buf, uint64(len(w.index)))
	for _, m := range w.index {
		buf = appendRow(buf, m.mapRef, uint64(m.offset), uint64(m.payloadLen), uint64(m.topoIndex),
			uint64(m.baseUnix), uint64(m.lastUnix), uint64(m.points), uint64(m.links))
	}

	// Versioned suffix: the rollup index, then the event index. A v1 footer
	// ends at the block index; readers treat "no bytes left" as v1 (no
	// rollups, no events) and a v2 suffix as rollups-only, so PR 3–7
	// archives keep opening read-only.
	buf = binary.AppendUvarint(buf, footerVersionEvents)
	buf = binary.AppendUvarint(buf, uint64(len(w.rollups)))
	for _, m := range w.rollups {
		buf = appendRow(buf, m.mapRef, uint64(m.res), uint64(m.offset), uint64(m.payloadLen),
			uint64(m.topoIndex), uint64(m.firstBucket), uint64(m.lastBucket), uint64(m.lastPoint),
			uint64(m.buckets), uint64(m.links))
	}

	buf = binary.AppendUvarint(buf, uint64(len(w.evIndex)))
	for _, m := range w.evIndex {
		buf = appendRow(buf, m.mapRef, uint64(m.offset), uint64(m.payloadLen), uint64(m.firstUnix),
			uint64(m.lastUnix), uint64(m.lastPoint), uint64(m.count))
	}
	return buf
}

// appendRow appends one footer-index row: its fields as uvarints, in the
// order parseRows hands them back.
func appendRow(buf []byte, fields ...uint64) []byte {
	for _, v := range fields {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// LastTime returns the time of the map's newest appended snapshot,
// including snapshots recovered by OpenAppend — the resume point a
// follow-mode ingester needs to skip work already archived.
func (w *Writer) LastTime(id wmap.MapID) (time.Time, bool) {
	t, ok := w.last[id]
	if !ok {
		return time.Time{}, false
	}
	return time.Unix(t, 0).UTC(), ok
}

// Version is the commit version of the last published checkpoint; 0 before
// the first commit or on a non-live writer.
func (w *Writer) Version() uint64 { return w.version }

// commit publishes the current flushed state as the archive's durable
// committed prefix: flush buffered block bytes, fsync the data file, then
// atomically replace the checkpoint — the write-ahead ordering the crash
// recovery relies on. No-op when nothing was flushed since the last commit.
func (w *Writer) commit() error {
	if w.off == w.committed {
		return nil
	}
	if w.bw != nil {
		if err := w.bw.Flush(); err != nil {
			w.err = fmt.Errorf("tsdb: flush: %w", err)
			return w.err
		}
	}
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("tsdb: sync: %w", err)
			return w.err
		}
	}
	w.version++
	if err := writeCheckpoint(w.ckptPath, w.off, w.version, w.encodeFooter()); err != nil {
		w.err = err
		return err
	}
	w.committed = w.off
	return nil
}

// Sync flushes every open block and publishes a durable commit, making all
// appended snapshots visible to tailing readers (Reader.Refresh) and
// recoverable after a crash. A follow-mode ingester calls it once per poll
// cycle; blocks it rotates out early are smaller than DefaultBlockPoints,
// which costs some index density but keeps readers at most one poll behind.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	if !w.live {
		return errors.New("tsdb: Sync requires an OpenAppend writer")
	}
	// Force the header out even when nothing was appended yet: the first
	// Sync of a fresh archive then commits a valid empty state, so a
	// tailing reader can open the file before the first snapshot lands.
	if err := w.ensureHeader(); err != nil {
		return err
	}
	if err := w.ensureResumed(); err != nil {
		return err
	}
	if err := w.flushOpen(); err != nil {
		return err
	}
	return w.commit()
}

// Close flushes every open block, writes the footer, and closes the
// underlying file when the writer owns one. The writer is unusable after.
// A live writer commits a final checkpoint before the footer lands and
// deletes the checkpoint after — every crash point during Close leaves
// either a recoverable live archive or a complete closed one.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil {
		w.err = w.finish()
	}
	if w.bw != nil {
		if ferr := w.bw.Flush(); ferr != nil && w.err == nil {
			w.err = fmt.Errorf("tsdb: flush: %w", ferr)
		}
	}
	if w.live && w.err == nil {
		// The footer must be durable before the checkpoint disappears, or a
		// crash here would leave a footer-less file with no commit record.
		if serr := w.f.Sync(); serr != nil {
			w.err = fmt.Errorf("tsdb: sync: %w", serr)
		} else if rerr := os.Remove(w.ckptPath); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			w.err = fmt.Errorf("tsdb: %w", rerr)
		}
	}
	if w.closer != nil {
		if cerr := w.closer.Close(); cerr != nil && w.err == nil {
			w.err = fmt.Errorf("tsdb: close: %w", cerr)
		}
	}
	return w.err
}

// flushOpen flushes the open blocks in map-id order so the byte output is
// a pure function of the append sequence.
func (w *Writer) flushOpen() error {
	ids := make([]string, 0, len(w.open))
	for id := range w.open {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := w.flushBlock(wmap.MapID(id), w.open[wmap.MapID(id)]); err != nil {
			return err
		}
		delete(w.open, wmap.MapID(id))
		// The same flush event a rotation fires: whether a raw block lands
		// here or in Append, the rollup flush decision sees the same state.
		if err := w.flushRollups(wmap.MapID(id), false); err != nil {
			return err
		}
		if err := w.flushEvents(wmap.MapID(id)); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) finish() error {
	if err := w.ensureHeader(); err != nil {
		return err
	}
	if err := w.ensureResumed(); err != nil {
		return err
	}
	if err := w.flushOpen(); err != nil {
		return err
	}
	// Drain every remaining sealed bucket; partial current buckets are
	// discarded — their points replay from raw blocks on a future resume.
	if err := w.flushFinalRollups(); err != nil {
		return err
	}
	// Defensive: flushOpen already drained every map with an open block, and
	// pending events only exist alongside open-block points, so this writes
	// nothing in practice — but a frame here beats silently dropped events.
	if err := w.flushFinalEvents(); err != nil {
		return err
	}
	if w.live {
		if err := w.commit(); err != nil {
			return err
		}
	}
	footer := w.encodeFooter()
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(footer))
	var flen [8]byte
	binary.LittleEndian.PutUint64(flen[:], uint64(len(footer)))
	return w.writeAll(footer, sum[:], flen[:], []byte(tailMagic))
}
