// Package extract implements the paper's primary contribution: turning a
// weather-map SVG image into a structured topology with per-direction link
// loads.
//
// The pipeline has two stages, mirroring the paper's Algorithms 1 and 2.
// Scan (Algorithm 1) walks the flat SVG element sequence and pulls out
// routers, link arrow pairs with their two load percentages, and link-end
// labels, relying only on element classes, tags and document order.
// Attribute (Algorithm 2) then reconstructs the relationships geometrically:
// each link defines the straight line through its two arrow bases; the
// routers and labels whose boxes intersect that line are sorted by distance
// to each link end, the closest router becomes the end's router, and the
// closest label is attributed to the end and removed from the candidate
// set. Sanity checks reject documents that violate the weather map's
// structural invariants.
package extract

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ovhweather/internal/geom"
	"ovhweather/internal/svg"
	"ovhweather/internal/wmap"
)

// Raw* types hold the output of Algorithm 1 before attribution.

// RawRouter is an extracted white box with a name: an OVH router or a
// physical peering.
type RawRouter struct {
	Name string
	Box  geom.Rect
}

// RawLink is an extracted pair of meeting arrows with its two sequential
// load percentages. Loads[0] belongs to ArrowA (the first polygon of the
// pair), Loads[1] to ArrowB.
type RawLink struct {
	ArrowA, ArrowB geom.Polygon
	Fills          [2]string // fill colors of the two arrows
	Loads          [2]wmap.Load
}

// RawLabel is an extracted link-end label: a small white box plus its text.
type RawLabel struct {
	Box  geom.Rect
	Text string
}

// ScanResult is everything Algorithm 1 extracts from one document.
type ScanResult struct {
	Routers []RawRouter
	Links   []RawLink
	Labels  []RawLabel
}

// Reset empties the result while keeping its capacity, so the worker-pool
// path can reuse one ScanResult per worker across snapshots.
func (r *ScanResult) Reset() {
	r.Routers = r.Routers[:0]
	r.Links = r.Links[:0]
	r.Labels = r.Labels[:0]
}

// ScanError describes a structural violation found while scanning.
type ScanError struct {
	Reason string
}

func (e *ScanError) Error() string { return "extract: scan: " + e.Reason }

func scanErrorf(format string, args ...any) error {
	return &ScanError{Reason: fmt.Sprintf(format, args...)}
}

// ScanOptions tunes Algorithm 1.
type ScanOptions struct {
	// VerifyColors cross-checks each load percentage against its arrow's
	// fill color: the map encodes the load twice ("explicitly with a
	// percentage and implicitly through its color"), and disagreement means
	// a corrupted document. Colors outside the known palette are ignored,
	// so the check is safe on foreign maps.
	VerifyColors bool
}

// Scan runs Algorithm 1 over an SVG document: it iterates the flat element
// sequence and classifies each element by class and tag. Two successive
// polygons form a link's arrow pair; the two labellink texts that follow
// carry its loads; "object" rect/text pairs are routers; "node" rect/text
// pairs are labels.
func Scan(r io.Reader) (*ScanResult, error) {
	return ScanWithOptions(r, ScanOptions{})
}

// ScanWithOptions is Scan with explicit options.
func ScanWithOptions(r io.Reader, opt ScanOptions) (*ScanResult, error) {
	res := &ScanResult{}
	err := scanInto(res, opt, func(fn func(svg.Element) error) error {
		return svg.Stream(r, fn)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ScanBytes runs Algorithm 1 over an in-memory document.
func ScanBytes(data []byte, opt ScanOptions) (*ScanResult, error) {
	res := &ScanResult{}
	if err := ScanBytesInto(res, data, opt); err != nil {
		return nil, err
	}
	return res, nil
}

// ScanBytesInto is ScanBytes reusing the caller's result: res is Reset and
// refilled, so a worker can amortize its slices across a whole map's
// snapshots. On error res holds a partial scan and must not be used.
func ScanBytesInto(res *ScanResult, data []byte, opt ScanOptions) error {
	res.Reset()
	return scanInto(res, opt, func(fn func(svg.Element) error) error {
		return svg.StreamBytes(data, fn)
	})
}

// scanInto is the Algorithm 1 state machine, independent of how the element
// stream is produced. The half-built router box, link and label are held by
// value behind presence flags, so a document costs a constant number of
// allocations rather than one per router, link and label.
//
//wm:hotpath
func scanInto(res *ScanResult, opt ScanOptions, stream func(func(svg.Element) error) error) error {
	var (
		routerBox    geom.Rect
		hasRouterBox bool
		link         RawLink
		hasLink      bool
		loadsSeen    int
		label        RawLabel
		hasLabel     bool
	)
	err := stream(func(e svg.Element) error {
		switch {
		case e.ClassHasPrefix("object"):
			// Router or peering: white box followed by its name.
			switch e.Tag {
			case svg.TagRect:
				routerBox, hasRouterBox = e.Rect, true
			case svg.TagText:
				if !hasRouterBox {
					return scanErrorf("router name %q without a preceding box", e.Text)
				}
				if e.Text == "" {
					return scanErrorf("router box with empty name")
				}
				res.Routers = append(res.Routers, RawRouter{Name: e.Text, Box: routerBox})
				hasRouterBox = false
			}
		case e.Tag == svg.TagPolygon:
			// Link arrow: first arrow opens a link, second completes the pair.
			if len(e.Points) < 3 {
				return scanErrorf("arrow polygon with %d points", len(e.Points))
			}
			if !hasLink {
				link, hasLink = RawLink{ArrowA: e.Points, Fills: [2]string{e.Fill, ""}}, true
				loadsSeen = 0
			} else if len(link.ArrowB) == 0 {
				link.ArrowB = e.Points
				link.Fills[1] = e.Fill
			} else {
				return scanErrorf("third arrow before the link's loads")
			}
		case e.HasClass("labellink"):
			// Load percentage: the two loads follow the two arrows.
			if !hasLink || len(link.ArrowB) == 0 {
				return scanErrorf("load %q with no open arrow pair", e.Text)
			}
			load, err := ParseLoad(e.Text)
			if err != nil {
				return err
			}
			if opt.VerifyColors && !wmap.ColorMatchesLoad(link.Fills[loadsSeen], load) {
				return scanErrorf("load %s disagrees with its arrow color %s",
					load, link.Fills[loadsSeen])
			}
			link.Loads[loadsSeen] = load
			loadsSeen++
			if loadsSeen == 2 {
				res.Links = append(res.Links, link)
				hasLink = false
			}
		case e.HasClass("node"):
			// Link label: white box followed by its text.
			switch e.Tag {
			case svg.TagRect:
				label, hasLabel = RawLabel{Box: e.Rect}, true
			case svg.TagText:
				if !hasLabel {
					return scanErrorf("label text %q without a preceding box", e.Text)
				}
				label.Text = e.Text
				res.Labels = append(res.Labels, label)
				hasLabel = false
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if hasLink {
		return scanErrorf("document ends with an incomplete link (%d loads)", loadsSeen)
	}
	if hasRouterBox {
		return scanErrorf("document ends with an unnamed router box")
	}
	if hasLabel {
		return scanErrorf("document ends with a textless label box")
	}
	return nil
}

// ParseLoad parses a displayed load percentage such as "42 %", enforcing
// the paper's range check: every load must lie within [0, 100].
func ParseLoad(s string) (wmap.Load, error) {
	t := strings.TrimSpace(s)
	t = strings.TrimSuffix(t, "%")
	t = strings.TrimSpace(t)
	n, err := strconv.Atoi(t)
	if err != nil {
		return 0, scanErrorf("unparsable load %q", s)
	}
	l := wmap.Load(n)
	if !l.Valid() {
		return 0, scanErrorf("load %d outside [0, 100]", n)
	}
	return l, nil
}

// ErrNotWeathermap is wrapped by Scan failures on documents that are valid
// SVG but contain none of the weather map's element classes.
var ErrNotWeathermap = errors.New("extract: document contains no weather-map elements")

// ScanComplete runs Scan and additionally requires a non-empty result.
func ScanComplete(r io.Reader) (*ScanResult, error) {
	return ScanCompleteWithOptions(r, ScanOptions{})
}

// ScanCompleteWithOptions is ScanComplete with explicit scan options.
func ScanCompleteWithOptions(r io.Reader, opt ScanOptions) (*ScanResult, error) {
	res, err := ScanWithOptions(r, opt)
	if err != nil {
		return nil, err
	}
	if len(res.Routers) == 0 && len(res.Links) == 0 {
		return nil, ErrNotWeathermap
	}
	return res, nil
}
