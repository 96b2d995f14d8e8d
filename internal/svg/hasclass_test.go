package svg_test

import (
	"strings"
	"testing"

	"ovhweather/internal/allocbudget"
	"ovhweather/internal/svg"
	"ovhweather/internal/wmap"
)

// hasClassFields is the reference HasClass: split the attribute with
// strings.Fields and compare every token.
func hasClassFields(class, cls string) bool {
	for _, tok := range strings.Fields(class) {
		if tok == cls {
			return true
		}
	}
	return false
}

// hasClassCases are class attributes that exercise every separator
// strings.Fields honours: ASCII whitespace, the Latin-1 spaces U+0085 and
// U+00A0, wider Unicode spaces, runs of separators (empty tokens), and
// invalid UTF-8 bytes, which decode as non-space runes.
var hasClassCases = []string{
	"",
	" ",
	"node",
	"labellink",
	"object router",
	"  object\trouter\n",
	"a\vb\fc\rd",
	"node\u0085labellink",
	"node labellink",
	" node ",
	"node labellink　x",
	"no de",
	"node\xffx labellink",
	"\xff node",
	"node\xc2",
	"\xc2\xa0node",
	"\xc2\x85node\xc2",
	"nodé labellink",
	"a  b   c",
}

func TestHasClassMatchesFields(t *testing.T) {
	for _, class := range hasClassCases {
		queries := append(strings.Fields(class), "", " ", "node", "labellink", "no", "de", "x", "\xff", "\xc2", class)
		for _, cls := range queries {
			e := svg.Element{Class: class}
			if got, want := e.HasClass(cls), hasClassFields(class, cls); got != want {
				t.Errorf("Element{Class: %q}.HasClass(%q) = %v, strings.Fields reference says %v", class, cls, got, want)
			}
		}
	}
}

// FuzzHasClass holds HasClass to the strings.Fields reference on arbitrary
// attribute and query strings.
func FuzzHasClass(f *testing.F) {
	for _, class := range hasClassCases {
		f.Add(class, "node")
		for _, tok := range strings.Fields(class) {
			f.Add(class, tok)
		}
	}
	f.Fuzz(func(t *testing.T, class, cls string) {
		e := svg.Element{Class: class}
		if got, want := e.HasClass(cls), hasClassFields(class, cls); got != want {
			t.Fatalf("Element{Class: %q}.HasClass(%q) = %v, strings.Fields reference says %v", class, cls, got, want)
		}
	})
}

// TestAllocBudgetHasClass pins HasClass at zero allocations over every
// element of a rendered Europe map, the question Algorithm 1 asks of
// nearly every element.
func TestAllocBudgetHasClass(t *testing.T) {
	var elems []svg.Element
	if err := svg.StreamBytes(renderedCorpus(t)[wmap.Europe], collectInto(&elems)); err != nil {
		t.Fatal(err)
	}
	matched := 0
	allocbudget.Check(t, 20, 0, func() {
		matched = 0
		for _, e := range elems {
			if e.HasClass("labellink") || e.HasClass("node") {
				matched++
			}
		}
	})
	if matched == 0 {
		t.Fatal("no labellink or node element in the rendered map")
	}
}
