// Command wmcollect polls a weather-map website every interval and archives
// the SVG snapshots into a dataset directory, the role of the paper's
// two-year crawler.
//
// Usage:
//
//	wmcollect -url http://localhost:8080 -out DIR [-interval 1s]
//	          [-count N] [-maps europe,...] [-plan] [-archive FILE]
//
// Snapshots are stamped with the collector's wall-clock time unless the
// server's virtual time is desired; pair it with wmserve and match
// -interval to wmserve's -tick to collect one snapshot per virtual step.
//
// -archive additionally runs the extraction pipeline inline: every stored
// SVG is parsed and attributed on the spot and appended to a live tsdb
// archive (tsdb.OpenAppend), with a durable commit after each poll cycle —
// so a concurrent `wmserve -archive -live` serves the crawl as it happens,
// with no wmparse batch pass in between. Unparsable snapshots are counted
// and skipped, exactly as the batch pipeline would classify them later.
// SIGINT/SIGTERM closes the archive into the normal footered form.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ovhweather/internal/collect"
	"ovhweather/internal/dataset"
	"ovhweather/internal/extract"
	"ovhweather/internal/tsdb"
	"ovhweather/internal/wmap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wmcollect: ")

	var (
		url      = flag.String("url", "http://localhost:8080", "weather-map base URL")
		out      = flag.String("out", "", "dataset output directory (required)")
		interval = flag.Duration("interval", time.Second, "polling interval")
		count    = flag.Int("count", 0, "number of polls (0 = run forever)")
		mapsStr  = flag.String("maps", "europe,world,north-america,asia-pacific", "maps to collect")
		usePlan  = flag.Bool("plan", false, "apply the paper's outage plan")
		archive  = flag.String("archive", "", "also extract and append each snapshot to a live tsdb archive at `file`")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		log.Fatal("missing -out")
	}
	var ids []wmap.MapID
	for _, s := range strings.Split(*mapsStr, ",") {
		id, err := wmap.ParseMapID(s)
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
	}
	store, err := dataset.Open(*out)
	if err != nil {
		log.Fatal(err)
	}
	plan := collect.Plan{}
	if *usePlan {
		plan = collect.DefaultPlan()
	}
	col := &collect.Collector{
		BaseURL: *url,
		Store:   store,
		Plan:    plan,
		Maps:    ids,
		Retries: 2,
	}

	// The live-ingest hook: one attribution cache and scan scratch shared
	// across the whole crawl (OnStored is called on the poll goroutine, so
	// no locking), feeding a live archive committed once per cycle. The
	// cache keeps one entry per map, so polling the maps in turn still hits
	// on every load-only snapshot.
	var (
		arch     *tsdb.Writer
		dropped  int
		appended int
	)
	if *archive != "" {
		arch, err = tsdb.OpenAppend(*archive)
		if err != nil {
			log.Fatal(err)
		}
		opt := extract.DefaultOptions()
		cache := extract.NewAttributionCache(opt)
		var res extract.ScanResult
		col.OnStored = func(id wmap.MapID, t time.Time, data []byte) error {
			if last, ok := arch.LastTime(id); ok && !t.After(last) {
				return nil // resumed archive already has this poll's timestamp
			}
			if err := extract.ScanBytesInto(&res, data, extract.ScanOptions{}); err != nil {
				dropped++
				return nil // unparsable snapshot: the batch pipeline would classify it, not abort
			}
			m, err := cache.Attribute(&res, id, t)
			if err != nil {
				dropped++
				return nil
			}
			if err := arch.Append(m); err != nil {
				return err
			}
			appended++
			return nil
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var total collect.Stats
	code := 0
poll:
	for i := 0; *count == 0 || i < *count; i++ {
		at := time.Now().UTC().Truncate(time.Minute)
		st, err := col.CollectAt(at)
		if err != nil {
			log.Print(err)
			code = 1
			break
		}
		total.Fetched += st.Fetched
		total.NotModified += st.NotModified
		total.Skipped += st.Skipped
		total.Failed += st.Failed
		if st.Failed > 0 {
			log.Printf("%s: %d fetch failure(s)", at.Format(time.RFC3339), st.Failed)
		}
		if arch != nil {
			// One durable commit per cycle: everything this poll appended
			// becomes visible to tailing readers and crash recovery together.
			if err := arch.Sync(); err != nil {
				log.Print(err)
				code = 1
				break
			}
		}
		if *count == 0 || i < *count-1 {
			select {
			case <-ctx.Done():
				log.Print("signal received, stopping")
				break poll
			case <-time.After(*interval):
			}
		}
	}
	if arch != nil {
		if err := arch.Close(); err != nil {
			log.Print(err)
			code = 1
		} else {
			s := arch.Stats()
			log.Printf("archive %s: %d snapshots appended this run (%d unparsable dropped), %d total, %d blocks",
				*archive, appended, dropped, s.Snapshots, s.Blocks)
		}
	}
	log.Printf("collected %d snapshots (%d from cache, %d skipped, %d failed) into %s",
		total.Fetched, total.NotModified, total.Skipped, total.Failed, *out)
	os.Exit(code)
}
