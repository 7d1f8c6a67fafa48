package table

import (
	"slices"
	"strconv"
	"testing"
)

// dictEntries is how many distinct texts the table holds: the
// spellings of every column's dictionary, and the keys no spelling is
// (its exceptions).
func dictEntries(t *Table) int {
	n := 0
	for c := range t.cols {
		n += t.cols[c].dict.Len() + t.cols[c].exc.Len()
	}
	return n
}

// TestColumnLayoutFollowsSpellings pins what a column holds beside its
// spellings: a key only where no spelling is that key, so a column
// whose every spelling is its own canonical key holds none; while no
// key has a second spelling the key codes are the dictionary codes,
// one slice; and only a column with spelling variants pays for a
// second code vector. A key is one group whichever of its spellings
// came first, and a spelling that is not its own key ("1.50", whose
// key is "1.5") does not answer for the key it spells.
func TestColumnLayoutFollowsSpellings(t *testing.T) {
	tab := MustNew("t", []string{"Canonical", "Capitals", "Variants", "Lower first", "Upper first", "Decimal"}, [][]string{
		{"1896", "Greece", "Athens", "athens", "Athens", "1.50"},
		{"athens", "France", " athens", "Athens", "athens", "2"},
		{"1896", "Greece", "ATHENS", "Rome", "Rome", "1.5"},
		{"", "Fiji", "Paris", "athens", "Athens", "1.50"},
	})
	canonical, capitals, variants := &tab.cols[0], &tab.cols[1], &tab.cols[2]

	if canonical.exc.Len() != 0 || canonical.entryGroup != nil || &canonical.groups[0] != &canonical.codes[0] {
		t.Errorf("canonical column: %d exceptions, entryGroup %v, groups shared %v",
			canonical.exc.Len(), canonical.entryGroup, &canonical.groups[0] == &canonical.codes[0])
	}
	if capitals.entryGroup != nil || &capitals.groups[0] != &capitals.codes[0] {
		t.Errorf("single-spelling column: entryGroup %v, groups shared %v", capitals.entryGroup, &capitals.groups[0] == &capitals.codes[0])
	}
	if capitals.nkeys != 3 || capitals.exc.Len() != 3 || capitals.exc.Entry(0) != "greece" || capitals.dict.Entry(0) != "Greece" {
		t.Errorf("single-spelling column: %d keys, %d exceptions starting %q over spellings starting %q",
			capitals.nkeys, capitals.exc.Len(), capitals.exc.Entry(0), capitals.dict.Entry(0))
	}
	if variants.entryGroup == nil || &variants.groups[0] == &variants.codes[0] {
		t.Errorf("column with spelling variants: entryGroup %v", variants.entryGroup)
	}
	if variants.dict.Len() != 4 || variants.nkeys != 2 || variants.exc.Len() != 2 {
		t.Errorf("column with spelling variants: %d spellings in %d groups, %d exceptions, want 4 in 2, 2",
			variants.dict.Len(), variants.nkeys, variants.exc.Len())
	}
	if rows := tab.RowsFor(2, StringValue("athens")); len(rows) != 3 {
		t.Errorf("RowsFor(athens) = %v, want the three spellings' rows", rows)
	}
	for c, excs := range map[int]int{3: 1, 4: 2} {
		cd := &tab.cols[c]
		if cd.nkeys != 2 || cd.exc.Len() != excs || !slices.Equal(cd.groups, []uint32{0, 0, 1, 0}) {
			t.Errorf("%s: %d keys, %d exceptions, key codes %v", tab.Column(c), cd.nkeys, cd.exc.Len(), cd.groups)
		}
		if rows := tab.RowsFor(c, StringValue("ATHENS")); !slices.Equal(rows, []int32{0, 1, 3}) {
			t.Errorf("%s: RowsFor(ATHENS) = %v", tab.Column(c), rows)
		}
	}
	if rows := tab.RowsFor(5, StringValue("1.50")); rows != nil {
		t.Errorf("RowsFor(\"1.50\" as text) = %v, want none: no cell's key is 1.50", rows)
	}
	if rows := tab.RowsFor(5, NumberValue(1.5)); !slices.Equal(rows, []int32{0, 2, 3}) {
		t.Errorf("RowsFor(1.5) = %v", rows)
	}
	if got := dictEntries(tab); got != 3+(3+3)+(4+2)+(3+1)+(3+2)+(3+1) {
		t.Errorf("%d dictionary entries, want 28", got)
	}
}

// TestTextIndexFindsEveryEntry grows an index through several
// doublings and looks every entry, and some absent texts, up again.
func TestTextIndexFindsEveryEntry(t *testing.T) {
	var ix textIndex
	var text []byte
	var ends []uint32
	const n = 5000
	for i := 0; i < n; i++ {
		s := "entry" + strconv.Itoa(i*7919)
		if _, ok := findText(&ix, text, ends, s, hashText(s)); ok {
			t.Fatalf("%q found before it was inserted", s)
		}
		text = append(text, s...)
		ends = append(ends, uint32(len(text)))
		insertText(&ix, text, ends, uint32(i), hashText(s))
	}
	if len(ix.slots) < 2*n || len(ix.slots) > 4*n {
		t.Fatalf("%d slots for %d entries, want between two and four each", len(ix.slots), n)
	}
	sealed := Dictionary{text: string(text), ends: ends}
	for i := 0; i < n; i++ {
		s := "entry" + strconv.Itoa(i*7919)
		if e, ok := findText(&ix, sealed.text, sealed.ends, []byte(s), hashText(s)); !ok || int(e) != i || sealed.Entry(i) != s {
			t.Fatalf("%q found as entry %d (%v), want %d", s, e, ok, i)
		}
	}
	for _, s := range []string{"", "entry", "entry1", "ENTRY0"} {
		if e, ok := findText(&ix, sealed.text, sealed.ends, s, hashText(s)); ok {
			t.Fatalf("absent %q found as entry %d", s, e)
		}
	}
}
