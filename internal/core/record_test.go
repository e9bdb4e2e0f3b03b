package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// recordPages lists the pages r records, in ascending order.
func recordPages(r *PageRecord) []int {
	var pages []int
	for w, m := range r.words {
		for ; m != 0; m &= m - 1 {
			pages = append(pages, w<<6+bits.TrailingZeros64(m))
		}
	}
	return pages
}

// Scattered runs of pages, added a page or a word mask at a time and in
// any order, are recorded exactly.
func TestRecordScatteredRuns(t *testing.T) {
	var r PageRecord
	for _, vp := range []int{5, 6, 7, 20, 21, 3} {
		r.Add(vp>>6, 1<<(vp&63))
	}
	r.Add(3, 1)     // vpage 192
	r.Add(2, 3<<62) // vpages 190 and 191
	if want := []int{3, 5, 6, 7, 20, 21, 190, 191, 192}; r.Len() != len(want) || !slices.Equal(recordPages(&r), want) {
		t.Fatalf("len %d, pages %v; want %v", r.Len(), recordPages(&r), want)
	}
	if r.Has(4) || !r.Has(190) || r.Has(1000) {
		t.Fatal("Has disagrees with the recorded pages")
	}
}

// Property: the record holds exactly the pages added, and Len counts every
// addition.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(vpages []uint16) bool {
		var r PageRecord
		var want []int
		for _, vp := range vpages {
			r.Add(int(vp)>>6, 1<<(vp&63))
			want = append(want, int(vp))
		}
		slices.Sort(want)
		return r.Len() == len(vpages) && slices.Equal(recordPages(&r), slices.Compact(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

func TestFeaturesString(t *testing.T) {
	cases := map[string]Features{
		"orig":        Orig,
		"ai":          AI,
		"so":          SO,
		"so/ao":       SOAO,
		"so/ao/bg":    SOAOBG,
		"so/ao/ai/bg": SOAOAIBG,
	}
	for want, f := range cases {
		if f.String() != want {
			t.Errorf("%+v.String() = %q, want %q", f, f.String(), want)
		}
		parsed, err := ParseFeatures(want)
		if err != nil {
			t.Fatalf("ParseFeatures(%q): %v", want, err)
		}
		if parsed != f {
			t.Errorf("ParseFeatures(%q) = %+v, want %+v", want, parsed, f)
		}
	}
}

func TestParseFeaturesAliases(t *testing.T) {
	for _, s := range []string{"", "orig", "ORIG", "lru", "original"} {
		f, err := ParseFeatures(s)
		if err != nil || f.Any() {
			t.Fatalf("ParseFeatures(%q) = %+v, %v", s, f, err)
		}
	}
	if _, err := ParseFeatures("so/xx"); err == nil {
		t.Fatal("bad token accepted")
	}
	f, err := ParseFeatures("bg/ai")
	if err != nil || !f.BGWrite || !f.AdaptiveIn || f.Selective {
		t.Fatalf("order-independent parse broken: %+v %v", f, err)
	}
}

func TestPaperCombos(t *testing.T) {
	combos := PaperCombos()
	if len(combos) != 6 {
		t.Fatalf("combos = %d", len(combos))
	}
	if combos[0].Any() {
		t.Fatal("first combo must be orig")
	}
	if combos[5] != SOAOAIBG {
		t.Fatal("last combo must be so/ao/ai/bg")
	}
}
