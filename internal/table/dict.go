package table

import "math/bits"

// Dictionary is an ordered list of distinct texts held back to back in
// one string: entry i is a window of it, so a dictionary of any size is
// two allocations and an entry costs its bytes plus four. A column
// keeps two — its cells' spellings and its canonical keys — each in
// order of first appearance; they are immutable once the table is
// built.
type Dictionary struct {
	text string
	ends []uint32 // entry i is text[ends[i-1]:ends[i]], from 0 for the first
}

// Len returns the number of entries.
func (d Dictionary) Len() int { return len(d.ends) }

// TextLen returns the total length of the entries' text.
func (d Dictionary) TextLen() int { return len(d.text) }

// Entry returns entry i. The string is a window of the dictionary's
// text: it costs nothing to make and keeps the whole text alive.
func (d Dictionary) Entry(i int) string { return entryOf(d.text, d.ends, i) }

// entryOf cuts entry i out of a dictionary's text, which is a byte
// slice while the dictionary is being built and a string afterwards.
func entryOf[A string | []byte](text A, ends []uint32, i int) A {
	lo := uint32(0)
	if i > 0 {
		lo = ends[i-1]
	}
	return text[lo:ends[i]]
}

// textIndex finds a dictionary's entries by their text: an
// open-addressing table of 4-byte slots, linear probing, at most half
// full. A slot holds an entry's number plus one and nothing else — no
// hash, no pointer — so a probe that lands on a taken slot compares
// against the dictionary itself.
type textIndex struct {
	slots []uint32 // a power of two of them, 0 for an empty one
}

const minIndexSlots = 8

// hashText is FNV-1a over the bytes of s, finished with a Fibonacci
// multiply so that slot numbers come from the well-mixed high bits.
func hashText[T string | []byte](s T) uint64 {
	return HashString(FNVOffset, s) * 0x9E3779B97F4A7C15
}

// slot maps a hash onto a table of n slots, n a power of two.
func slot(h uint64, n int) int {
	return int(h >> (64 - uint(bits.TrailingZeros(uint(n)))))
}

// findText looks s, whose hash is h, up among the entries of the
// dictionary (text, ends).
func findText[A, T string | []byte](ix *textIndex, text A, ends []uint32, s T, h uint64) (uint32, bool) {
	n := len(ix.slots)
	if n == 0 {
		return 0, false
	}
	for i := slot(h, n); ; i = (i + 1) & (n - 1) {
		e := ix.slots[i]
		if e == 0 {
			return 0, false
		}
		if string(entryOf(text, ends, int(e-1))) == string(s) {
			return e - 1, true
		}
	}
}

// insertText records entry e of the dictionary (text, ends), which
// findText has just missed. When that would leave the table more than
// half full it first doubles it, hashing every earlier entry again,
// and reports how many it rehashed.
func insertText[A string | []byte](ix *textIndex, text A, ends []uint32, e uint32, h uint64) (rehashed int) {
	if n := len(ix.slots); int(e+1)*2 > n {
		ix.slots = make([]uint32, max(2*n, minIndexSlots))
		for p := uint32(0); p < e; p++ {
			ix.place(p, hashText(entryOf(text, ends, int(p))))
		}
		rehashed = int(e)
	}
	ix.place(e, h)
	return rehashed
}

func (ix *textIndex) place(e uint32, h uint64) {
	n := len(ix.slots)
	i := slot(h, n)
	for ix.slots[i] != 0 {
		i = (i + 1) & (n - 1)
	}
	ix.slots[i] = e + 1
}
