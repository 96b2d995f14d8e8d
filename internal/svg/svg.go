// Package svg provides the minimal SVG document model the weather-map
// pipeline needs: a writer that emits the flat element structure the OVH
// Network Weathermap publishes, and a reader that turns an SVG document back
// into the flat element sequence Algorithm 1 of the paper consumes.
//
// The weather map's SVG is deliberately *not* hierarchical: routers, link
// arrows, load percentages and link labels appear as sibling elements whose
// relationships exist only in 2D space. The reader therefore flattens
// whatever grouping exists and preserves document order, which Algorithm 1
// depends on (the two polygons of a link are adjacent, the two load texts
// follow them, a label's rect precedes its text).
package svg

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"ovhweather/internal/geom"
)

// Tag identifies the SVG element kinds the weather map uses.
type Tag string

// Tags appearing in weather-map documents.
const (
	TagRect    Tag = "rect"
	TagText    Tag = "text"
	TagPolygon Tag = "polygon"
	TagLine    Tag = "line"
	TagGroup   Tag = "g"
)

// Element is one flat SVG element in document order.
//
// Depending on Tag, a subset of the fields is meaningful:
//   - TagRect: Rect (from x/y/width/height)
//   - TagText: Pos (from x/y) and Text
//   - TagPolygon: Points
//   - TagGroup: no geometry of its own; the reader emits a group's class on
//     each of its children instead, mirroring how the extraction scripts see
//     class attributes after flattening.
type Element struct {
	Tag    Tag
	Class  string
	ID     string
	Text   string
	Fill   string // fill attribute (polygons carry the load color)
	Rect   geom.Rect
	Pos    geom.Point
	Points geom.Polygon
}

// ClassHasPrefix reports whether the element's class attribute starts with
// prefix, matching the paper's "elem.class starts with object" test. Classes
// are space-separated lists; the prefix test applies to the full attribute,
// as the weather map emits the discriminating token first.
func (e Element) ClassHasPrefix(prefix string) bool {
	return strings.HasPrefix(e.Class, prefix)
}

// HasClass reports whether cls appears as one of the space-separated class
// tokens. Tokens split exactly as strings.Fields splits them (on
// unicode.IsSpace, so U+0085 and U+00A0 separate too, and an invalid UTF-8
// byte is a non-space rune of width one), but the walk compares each token
// in place instead of building the token slice: Algorithm 1 asks this of
// nearly every element of every document.
//
//wm:hotpath
func (e Element) HasClass(cls string) bool {
	s := e.Class
	start := -1 // start of the current token, -1 between tokens
	for i := 0; i < len(s); {
		var space bool
		w := 1
		if c := s[i]; c < utf8.RuneSelf {
			space = fieldSpace[c]
		} else {
			var r rune
			r, w = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			if s[start:i] == cls {
				return true
			}
			start = -1
		case !space && start < 0:
			start = i
		}
		i += w
	}
	return start >= 0 && s[start:] == cls
}

// fieldSpace marks the ASCII bytes unicode.IsSpace accepts.
var fieldSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// ParsePoints parses an SVG points attribute ("x1,y1 x2,y2 ..." with
// either comma or whitespace separators) into a polygon.
func ParsePoints(s string) (geom.Polygon, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == ',' || r == '\t' || r == '\n' || r == '\r'
	})
	if len(fields)%2 != 0 {
		return nil, &ValueError{Attr: "points", Value: s, Reason: "odd number of coordinates"}
	}
	pg := make(geom.Polygon, 0, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		x, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, &ValueError{Attr: "points", Value: s, Reason: fmt.Sprintf("bad x coordinate %q", fields[i])}
		}
		y, err := strconv.ParseFloat(fields[i+1], 64)
		if err != nil {
			return nil, &ValueError{Attr: "points", Value: s, Reason: fmt.Sprintf("bad y coordinate %q", fields[i+1])}
		}
		pg = append(pg, geom.Pt(x, y))
	}
	return pg, nil
}

// FormatPoints renders a polygon as an SVG points attribute value.
func FormatPoints(pg geom.Polygon) string {
	var b strings.Builder
	for i, p := range pg {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(trimFloat(p.X))
		b.WriteByte(',')
		b.WriteString(trimFloat(p.Y))
	}
	return b.String()
}

// trimFloat formats a coordinate compactly (SVG files are large; the
// dataset's 227 GiB of SVGs motivates shaving digits).
func trimFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', 2, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
