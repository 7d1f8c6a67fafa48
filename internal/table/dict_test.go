package table

import (
	"strconv"
	"testing"
	"unsafe"
)

// dictEntries is how many distinct texts the table holds: the
// spellings of every column's dictionary, and the keys of the columns
// whose keys are not those spellings themselves.
func dictEntries(t *Table) int {
	n := 0
	for c := range t.cols {
		n += t.cols[c].dict.Len()
		if t.cols[c].ownKeys {
			n += t.cols[c].keys.Len()
		}
	}
	return n
}

// TestColumnLayoutFollowsSpellings pins what a column shares with
// itself: while every spelling is its own canonical key the key
// dictionary and its index are the dictionary and its index; while no
// key has a second spelling the key codes are the dictionary codes,
// one slice; and only a column with spelling variants pays for a
// second code vector.
func TestColumnLayoutFollowsSpellings(t *testing.T) {
	tab := MustNew("t", []string{"Canonical", "Capitals", "Variants"}, [][]string{
		{"1896", "Greece", "Athens"},
		{"athens", "France", " athens"},
		{"1896", "Greece", "ATHENS"},
		{"", "Fiji", "Paris"},
	})
	canonical, capitals, variants := &tab.cols[0], &tab.cols[1], &tab.cols[2]

	if canonical.ownKeys || canonical.entryGroup != nil {
		t.Errorf("canonical column: ownKeys %v, entryGroup %v", canonical.ownKeys, canonical.entryGroup)
	}
	if &canonical.groups[0] != &canonical.codes[0] || &canonical.keyIx.slots[0] != &canonical.dictIx.slots[0] ||
		unsafe.StringData(canonical.keys.text) != unsafe.StringData(canonical.dict.text) {
		t.Error("canonical column keeps a second copy of its codes, index or text")
	}
	if !capitals.ownKeys || capitals.entryGroup != nil || &capitals.groups[0] != &capitals.codes[0] {
		t.Errorf("single-spelling column: ownKeys %v, entryGroup %v, groups shared %v",
			capitals.ownKeys, capitals.entryGroup, &capitals.groups[0] == &capitals.codes[0])
	}
	if capitals.keys.Len() != 3 || capitals.keys.Entry(0) != "greece" || capitals.dict.Entry(0) != "Greece" {
		t.Errorf("single-spelling column: keys %d starting %q over spellings starting %q", capitals.keys.Len(), capitals.keys.Entry(0), capitals.dict.Entry(0))
	}
	if !variants.ownKeys || variants.entryGroup == nil || &variants.groups[0] == &variants.codes[0] {
		t.Errorf("column with spelling variants: ownKeys %v, entryGroup %v", variants.ownKeys, variants.entryGroup)
	}
	if variants.dict.Len() != 4 || variants.keys.Len() != 2 {
		t.Errorf("column with spelling variants: %d spellings in %d groups, want 4 in 2", variants.dict.Len(), variants.keys.Len())
	}
	if rows := tab.RowsFor(2, StringValue("athens")); len(rows) != 3 {
		t.Errorf("RowsFor(athens) = %v, want the three spellings' rows", rows)
	}
	if got := dictEntries(tab); got != 3+(3+3)+(4+2) {
		t.Errorf("%d dictionary entries, want 15", got)
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
