package tsdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ovhweather/internal/netsim"
	"ovhweather/internal/wmap"
)

// The golden-bytes tests pin the exact on-disk format. Every other
// byte-identity test compares the code with itself (live vs batch, resumed
// vs uninterrupted); these compare it with hashes recorded from an earlier
// build, so a refactor of the write path cannot drift the format silently.
// A deliberate format change must update the hashes and say why.

const (
	goldenBatchSHA256 = "19037b2f20d41cc3074e5ba9b5f1902ec7498f6b343ac2263aec8af5e3550ff3"
	goldenLiveSHA256  = "b6c81efb209f48626c261763ebb8e0a568a8acbf4458a46bb98968cb564795de"
)

// goldenRounds renders the four netsim maps every 30 minutes over 36 hours
// around the first Europe router batch (2020-08-05), so the archive holds
// block rotations, a topology change, 1h and 1d rollup fragments and
// detected events. Each round lists the maps in wmap.AllMaps order.
func goldenRounds(t *testing.T) [][]*wmap.Map {
	t.Helper()
	sim, err := netsim.New(netsim.DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2020, time.August, 4, 12, 0, 0, 0, time.UTC)
	var rounds [][]*wmap.Map
	for i := 0; i < 72; i++ {
		var round []*wmap.Map
		for _, id := range wmap.AllMaps() {
			m, err := sim.MapAt(id, start.Add(time.Duration(i)*30*time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			round = append(round, m)
		}
		rounds = append(rounds, round)
	}
	return rounds
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestGoldenBatchArchive pins a closed batch archive of the netsim rounds.
func TestGoldenBatchArchive(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetBlockPoints(16)
	for _, round := range goldenRounds(t) {
		for _, m := range round {
			if err := w.Append(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.RollupBlocks == 0 || st.EventBlocks == 0 || st.Topologies < 5 {
		t.Fatalf("golden corpus too tame: %+v", st)
	}
	if got := sha256Hex(buf.Bytes()); got != goldenBatchSHA256 {
		t.Fatalf("batch archive sha256 = %s (%d bytes), want %s", got, buf.Len(), goldenBatchSHA256)
	}
}

// TestGoldenLiveArchive pins a live archive: one Sync per round as a
// follow-mode ingester commits once per poll cycle, the writer abandoned
// midway with two rounds appended past the last Sync, the on-disk state
// resumed by OpenAppend, the rest appended, then Close.
func TestGoldenLiveArchive(t *testing.T) {
	rounds := goldenRounds(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "live.tsdb")
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockPoints(16)
	const crashAt = 40
	for i, round := range rounds {
		if i == crashAt {
			path = restoreFiles(t, dir, "resumed.tsdb", captureFiles(t, path))
			if w, err = OpenAppend(path); err != nil {
				t.Fatal(err)
			}
			w.SetBlockPoints(16)
		}
		for _, m := range round {
			if err := w.Append(m); err != nil {
				t.Fatal(err)
			}
		}
		if i < crashAt-2 || i >= crashAt {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(data); got != goldenLiveSHA256 {
		t.Fatalf("live archive sha256 = %s (%d bytes), want %s", got, len(data), goldenLiveSHA256)
	}
}
