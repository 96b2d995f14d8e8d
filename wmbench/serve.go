package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ovhweather/internal/render"
	"ovhweather/internal/wmap"
)

// loopback is an HTTP server on 127.0.0.1 serving one handler.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return l, nil
}

// close stops the server, drops its connections and waits for Serve to
// return.
func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// newHTTPClient returns a client with its own connection pool.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// site is the simulated weather-map website: SVGs rendered during set-up,
// replayed from memory one virtual step at a time, with ETags so the
// collector's conditional GETs behave as against the real site.
type site struct {
	maps   []wmap.MapID
	docs   [][]siteDoc // [step][map]
	step   atomic.Int64
	served atomic.Int64
}

type siteDoc struct {
	body []byte
	etag string
}

func newSite(maps []wmap.MapID, svgs [][][]byte) *site {
	s := &site{maps: maps, docs: make([][]siteDoc, len(svgs))}
	for i, row := range svgs {
		s.docs[i] = make([]siteDoc, len(row))
		for j, b := range row {
			h := fnv.New64a()
			h.Write(b)
			s.docs[i][j] = siteDoc{body: b, etag: strconv.Quote(strconv.FormatUint(h.Sum64(), 16))}
		}
	}
	return s
}

func (s *site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, ok := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/map/"), ".svg")
	if !ok {
		http.NotFound(w, r)
		return
	}
	row := s.docs[s.step.Load()]
	for j, id := range s.maps {
		if string(id) != name || row[j].body == nil {
			continue
		}
		w.Header().Set("ETag", row[j].etag)
		s.served.Add(1)
		if r.Header.Get("If-None-Match") == row[j].etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		w.Write(row[j].body)
		return
	}
	http.NotFound(w, r)
}

// renderStats is the render layer's work in one set-up.
type renderStats struct {
	layout, svg time.Duration // summed over workers
	failed      int
	layouts     int // layouts computed: cached scenes plus failed attempts
}

// renderAll renders every map to SVG on workers goroutines sharing one
// SceneCache, as the site generator does. A map whose layout fails gets a
// nil document and counts in failed.
func renderAll(ms []*wmap.Map, workers int) ([][]byte, renderStats) {
	cache := render.NewSceneCache(render.Options{})
	out := make([][]byte, len(ms))
	var (
		mu  sync.Mutex
		st  renderStats
		wg  sync.WaitGroup
		nxt atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var layout, svg time.Duration
			failed := 0
			for {
				i := int(nxt.Add(1)) - 1
				if i >= len(ms) {
					break
				}
				t0 := time.Now()
				sc, err := cache.Scene(ms[i])
				t1 := time.Now()
				layout += t1.Sub(t0)
				if err != nil {
					failed++
					continue
				}
				buf.Reset()
				if err := render.WriteSVG(&buf, sc, ms[i]); err != nil {
					failed++
					continue
				}
				svg += time.Since(t1)
				out[i] = bytes.Clone(buf.Bytes())
			}
			mu.Lock()
			st.layout += layout
			st.svg += svg
			st.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.layouts = cache.Len() + st.failed
	return out, st
}

func (st renderStats) layer() map[string]float64 {
	return map[string]float64{
		"render.layout_ms":    ms(st.layout),
		"render.layout_calls": float64(st.layouts),
		"render.svg_ms":       ms(st.svg),
		"render.failed":       float64(st.failed),
	}
}

// query is one request of the dashboard mix.
type query struct {
	class    string
	path     string
	id       wmap.MapID
	from, to time.Time // link_raw and grid_1h: the window asked for
}

// mixer draws the seeded dashboard request mix.
type mixer struct {
	rng   *rand.Rand
	maps  []wmap.MapID
	links map[wmap.MapID][]string // link ids present over the whole archive
	step  time.Duration           // snapshot interval
}

// mixWeights are the dashboard classes' shares of requests, in percent.
var mixWeights = []struct {
	class  string
	weight int
}{
	{"link_raw", 30}, {"link_1h", 25}, {"link_15m", 20}, {"topology", 12},
	{"imbalance", 6}, {"events", 4}, {"grid_1h", 3},
}

// next draws one request against an archive holding [from, to].
func (m *mixer) next(from, to time.Time) query {
	r := m.rng.Intn(100)
	class := mixWeights[len(mixWeights)-1].class
	for _, w := range mixWeights {
		if r < w.weight {
			class = w.class
			break
		}
		r -= w.weight
	}
	id := m.maps[m.rng.Intn(len(m.maps))]
	q := query{class: class, id: id}
	day := m.window(from, to, 24*time.Hour)
	link := func() string { ls := m.links[id]; return ls[m.rng.Intn(len(ls))] }
	switch class {
	case "link_raw":
		q.from, q.to = day, minTime(day.Add(24*time.Hour), to)
		q.path = loadPath(link(), q.from, q.to, "")
	case "link_1h":
		q.path = loadPath(link(), m.window(from, to, 7*24*time.Hour), to, "1h")
	case "link_15m":
		q.path = loadPath(link(), day, minTime(day.Add(24*time.Hour), to), "15m")
	case "grid_1h":
		q.path = "/api/v1/grid?" + url.Values{"map": {string(id)}, "from": {rfc(day)},
			"to": {rfc(minTime(day.Add(24*time.Hour), to))}, "step": {"1h"}}.Encode()
		q.from, q.to = day, minTime(day.Add(24*time.Hour), to)
	case "topology", "imbalance":
		at := m.window(from, to, 0)
		q.path = "/api/v1/" + class + "?" + url.Values{"map": {string(id)}, "at": {rfc(at)}}.Encode()
	case "events":
		q.path = "/api/v1/events?map=" + string(id)
	}
	return q
}

// window draws a snapshot-aligned start time t with [t, t+span] inside
// [from, to] (t = from when the archive is shorter than span).
func (m *mixer) window(from, to time.Time, span time.Duration) time.Time {
	n := int64(to.Sub(from)-span) / int64(m.step)
	if n <= 0 {
		return from
	}
	return from.Add(time.Duration(m.rng.Int63n(n+1)) * m.step)
}

func loadPath(link string, from, to time.Time, step string) string {
	v := url.Values{"from": {rfc(from)}, "to": {rfc(to)}}
	if step != "" {
		v.Set("step", step)
	}
	return "/api/v1/links/" + link + "/load?" + v.Encode()
}

func rfc(t time.Time) string { return t.UTC().Format(time.RFC3339) }

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// rawPoints counts the points of a raw load response: each point is one
// {"t":...} object in each of the two direction arrays.
func rawPoints(body []byte) int { return bytes.Count(body, []byte(`{"t":`)) / 2 }

// queryResult is one completed request.
type queryResult struct {
	status int
	points int // link_raw only
	valid  bool
	size   int
}

// doQuery sends one GET and reads the whole body into buf. It reports the
// client-side latency from send to the last body byte.
func doQuery(ctx context.Context, c *http.Client, base string, q query, buf *bytes.Buffer) (queryResult, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+q.path, nil)
	if err != nil {
		return queryResult{}, 0, err
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return queryResult{}, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return queryResult{}, 0, err
	}
	b := buf.Bytes()
	res := queryResult{status: resp.StatusCode, valid: json.Valid(b), size: len(b)}
	if q.class == "link_raw" {
		res.points = rawPoints(b)
	}
	return res, d, nil
}

// sseClient holds one /api/v1/stream subscription and counts the event
// frames it receives.
type sseClient struct {
	frames atomic.Int64
	cancel context.CancelFunc
	done   chan error
	client *http.Client
}

// startSSE subscribes and returns once the server has registered the
// subscriber (its ": connected" comment arrived).
func startSSE(ctx context.Context, base string) (*sseClient, error) {
	ctx, cancel := context.WithCancel(ctx)
	s := &sseClient{cancel: cancel, done: make(chan error, 1), client: newHTTPClient()}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	connected := make(chan struct{})
	go func() {
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		first := true
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				if ctx.Err() != nil {
					err = nil // stop cancelled the subscription
				}
				if first {
					close(connected)
				}
				s.done <- err
				return
			}
			if first && strings.HasPrefix(line, ": connected") {
				first = false
				close(connected)
			}
			if strings.HasPrefix(line, "event: ") {
				s.frames.Add(1)
			}
		}
	}()
	<-connected
	return s, nil
}

// waitFor blocks until the subscriber has seen n frames or d passes.
func (s *sseClient) waitFor(n int64, d time.Duration) {
	deadline := time.Now().Add(d)
	for s.frames.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// stop ends the subscription and waits for the reader goroutine.
func (s *sseClient) stop() error {
	s.cancel()
	err := <-s.done
	closeClient(s.client)
	return err
}
