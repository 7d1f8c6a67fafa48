package main

// Seeded input generators: the two corpora (web, big), the mutate
// tables, and each workload's warm-up and op stream. Everything the
// server receives is produced here from -seed and nothing else; the
// generators import no package of the module, so the measured program
// can change without changing the inputs.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Sizes the workloads are built from. cacheEntries is the server's
// default per-cache LRU capacity; pools are sized against it.
const (
	cacheEntries = 1024

	webTables       = 96
	sampleThreshold = 40 // Section 5.3: explanation grids sample above this many rows

	coldPerTable = 96 // 96 tables x 96 = 9216 distinct explain texts, 9x the LRU
	hotQueries   = 256
	hotStream    = 1 << 16
	askPerTable  = 48 // 4608 distinct questions, 4.5x the LRU

	bigRows   = 131072 // 4 morsels of 32768, above the 65536-row parallel threshold
	scanPool  = 16384  // 16x the answer LRU; every literal distinct
	morselLen = 32768

	mutTables    = 16
	mutStartRows = 64
	mutBatchRows = 8
	mutMaxRows   = 512
	// One table's cycle: register, 56 appends, drop.
	mutCycle = 2 + (mutMaxRows-mutStartRows)/mutBatchRows
)

type colKind uint8

const (
	colKey colKind = iota // unique text
	colCat                // categorical text from a small vocabulary
	colNum                // integer in [Lo, Hi]
	colSeq                // row index, monotone
)

type colSpec struct {
	Name   string
	Kind   colKind
	Vocab  int
	Lo, Hi int
}

type schema struct {
	Name string
	Cols []colSpec
}

// webSchemas are the six shapes of the web corpus. Every schema has a
// key column, two categorical columns and two or three integer columns,
// so each query family has a column to work on in every table.
var webSchemas = []schema{
	{"games", []colSpec{{"Host", colKey, 0, 0, 0}, {"Nation", colCat, 12, 0, 0}, {"Region", colCat, 5, 0, 0}, {"Year", colNum, 0, 1896, 2024}, {"Events", colNum, 0, 1, 400}, {"Medals", colNum, 0, 0, 150}}},
	{"films", []colSpec{{"Title", colKey, 0, 0, 0}, {"Director", colCat, 14, 0, 0}, {"Genre", colCat, 6, 0, 0}, {"Year", colNum, 0, 1950, 2024}, {"Gross", colNum, 0, 1, 900}, {"Rating", colNum, 0, 1, 100}}},
	{"players", []colSpec{{"Player", colKey, 0, 0, 0}, {"Team", colCat, 10, 0, 0}, {"Position", colCat, 4, 0, 0}, {"Goals", colNum, 0, 0, 60}, {"Caps", colNum, 0, 1, 180}}},
	{"elections", []colSpec{{"District", colKey, 0, 0, 0}, {"Party", colCat, 7, 0, 0}, {"State", colCat, 9, 0, 0}, {"Votes", colNum, 0, 100, 90000}, {"Turnout", colNum, 0, 20, 95}}},
	{"mountains", []colSpec{{"Peak", colKey, 0, 0, 0}, {"Range", colCat, 8, 0, 0}, {"Country", colCat, 11, 0, 0}, {"Height", colNum, 0, 900, 8800}, {"Ascents", colNum, 0, 0, 500}, {"Year", colNum, 0, 1800, 2020}}},
	{"albums", []colSpec{{"Album", colKey, 0, 0, 0}, {"Artist", colCat, 13, 0, 0}, {"Label", colCat, 6, 0, 0}, {"Year", colNum, 0, 1960, 2024}, {"Sales", colNum, 0, 1, 5000}, {"Weeks", colNum, 0, 1, 80}}},
}

// bigSchema has two monotone columns. Seq is clean, so once its sorted
// index exists the server answers ranges on it from the index. Tick is
// the same sequence with one reading missing (genBig writes "NaN" into
// its last row): a NaN cell makes a column unindexable, so ranges on
// Tick are answered through the zone maps for as long as the server
// lives — the only way a query over HTTP reaches that path in the
// steady state.
var bigSchema = schema{"big", []colSpec{{"Seq", colSeq, 0, 0, 0}, {"Tick", colSeq, 0, 0, 0}, {"Nation", colCat, 40, 0, 0}, {"City", colCat, 24, 0, 0}, {"Games", colNum, 0, 0, 999999}, {"Score", colNum, 0, 0, 9999}}}

var mutSchema = schema{"mut", []colSpec{{"Entry", colKey, 0, 0, 0}, {"Nation", colCat, 9, 0, 0}, {"City", colCat, 6, 0, 0}, {"Games", colNum, 0, 1, 400}, {"Score", colNum, 0, 0, 999}}}

// webRows gives the j-th table of a schema its size: half the tables
// sit under the 40-row sampling threshold and half over it.
func webRows(j int) int {
	if j < 8 {
		return webSizes[j%3]
	}
	return webSizes[3+j%3]
}

// tableData is one generated table in the form the server is given it.
type tableData struct {
	Name    string
	Columns []string
	Rows    [][]string
	kinds   []colKind
}

func (t *tableData) colsOf(kinds ...colKind) []int {
	var out []int
	for c, k := range t.kinds {
		for _, want := range kinds {
			if k == want {
				out = append(out, c)
			}
		}
	}
	return out
}

// csv renders the table as the server's CSV loader reads it. Generated
// cells never contain separators or quotes, so no escaping is needed.
func (t *tableData) csv() []byte {
	var b bytes.Buffer
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// userBytes is the size of the table's content as CSV: the denominator
// of bytes-stored-per-user-byte ratios.
func userBytes(columns []string, rows [][]string) int64 {
	n := int64(len(columns))
	for _, c := range columns {
		n += int64(len(c))
	}
	for _, r := range rows {
		n += int64(len(r))
		for _, cell := range r {
			n += int64(len(cell))
		}
	}
	return n
}

var (
	consonants = []byte("bdfgklmnprstvz")
	vowels     = []byte("aeiou")
)

// word makes a capitalised pseudo-word of consonant-vowel syllables. Such
// words never parse as numbers or dates, never collide with a keyword of
// the query language and need no quoting in query text.
func word(rng *rand.Rand, syllables int) string {
	b := make([]byte, 0, 2*syllables)
	for i := 0; i < syllables; i++ {
		b = append(b, consonants[rng.Intn(len(consonants))], vowels[rng.Intn(len(vowels))])
	}
	b[0] -= 'a' - 'A'
	return string(b)
}

// uniqueWords draws n distinct words.
func uniqueWords(rng *rand.Rand, n, syllables int, taken map[string]bool) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		w := word(rng, syllables)
		if taken[w] {
			continue
		}
		taken[w] = true
		out = append(out, w)
	}
	return out
}

// rowMaker produces rows of one table: the vocabularies are fixed when
// it is made, so rows appended later draw from the same value sets.
type rowMaker struct {
	rng    *rand.Rand
	cols   []colSpec
	vocabs [][]string
	taken  map[string]bool
	next   int
}

func newRowMaker(rng *rand.Rand, s schema) *rowMaker {
	m := &rowMaker{rng: rng, cols: s.Cols, vocabs: make([][]string, len(s.Cols)), taken: map[string]bool{}}
	for c, spec := range s.Cols {
		if spec.Kind == colCat {
			m.vocabs[c] = uniqueWords(rng, spec.Vocab, 2, m.taken)
		}
	}
	return m
}

func (m *rowMaker) row() []string {
	r := make([]string, len(m.cols))
	for c, spec := range m.cols {
		switch spec.Kind {
		case colKey:
			r[c] = uniqueWords(m.rng, 1, 3, m.taken)[0]
		case colCat:
			r[c] = m.vocabs[c][m.rng.Intn(len(m.vocabs[c]))]
		case colNum:
			r[c] = strconv.Itoa(spec.Lo + m.rng.Intn(spec.Hi-spec.Lo+1))
		case colSeq:
			r[c] = strconv.Itoa(m.next)
		}
	}
	m.next++
	return r
}

func (m *rowMaker) rows(n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = m.row()
	}
	return out
}

func newTable(name string, s schema, m *rowMaker, n int) *tableData {
	t := &tableData{Name: name, Rows: m.rows(n)}
	for _, c := range s.Cols {
		t.Columns = append(t.Columns, c.Name)
		t.kinds = append(t.kinds, c.Kind)
	}
	return t
}

// subRand derives an independent generator for one component, so adding
// draws to one component never shifts another's inputs.
func subRand(seed int64, salt string) *rand.Rand {
	sum := sha256.Sum256([]byte(salt))
	return rand.New(rand.NewSource(seed ^ int64(binary.LittleEndian.Uint64(sum[:8]))))
}

func genWeb(seed int64) []*tableData {
	rng := subRand(seed, "corpus/web")
	tables := make([]*tableData, 0, webTables)
	for i := 0; i < webTables; i++ {
		s := webSchemas[i%len(webSchemas)]
		j := i / len(webSchemas)
		name := fmt.Sprintf("%s_%02d", s.Name, j)
		tables = append(tables, newTable(name, s, newRowMaker(rng, s), webRows(j)))
	}
	return tables
}

func genBig(seed int64) *tableData {
	rng := subRand(seed, "corpus/big")
	t := newTable("big", bigSchema, newRowMaker(rng, bigSchema), bigRows)
	t.Rows[bigRows-1][1] = "NaN" // Tick's missing reading
	return t
}

// Op kinds and latency classes.
type opKind uint8

const (
	kindExplain opKind = iota
	kindAnswer
	kindAsk
	kindRegister
	kindAppend
	kindDrop
)

const (
	classPrimary uint8 = iota // feeds client.p50_ms
	classAlt                  // feeds client.alt_p50_ms
	classOther                // executed and checked, in neither latency class
)

// op is one generated operation. Ops with the same non-negative ID must
// produce the same response every time they run (cache ≡ compute); -1
// marks an op with no such identity.
type op struct {
	Kind  opKind
	Class uint8
	Table string
	Query string     // DCS text, or the NL question of an ask op
	Rows  [][]string // register / append payload
	Cols  []string   // register payload
	Want  string     // the harness's own answer; "" when the op has no oracle
	ID    int
	Scan  int // table rows a full-scan-class op covers, else 0

	body    []byte
	stratum int // explain pool only: table-size class x query family
}

// workload is everything one benchmark workload feeds the server.
type workload struct {
	Name        string
	ServerFlags []string
	CSV         []*tableData // written to disk and passed as positional arguments
	Tables      []*tableData // registered over HTTP during set-up
	Warmup      []op
	Ops         []op // cyclic stream; two clients draw from it in order
	// Reads, when set, pairs Ops[i] with a read issued at the same time
	// on the second connection (the mutate workload's lockstep), and
	// PairsPerSecond is how many pairs a second of window stands for:
	// what the 2-core sandbox completes.
	Reads          []op
	PairsPerSecond int
	// Final maps each table to its expected row count once set-up is done.
	Final map[string]int

	// What the workload must still be when the window ends, checked on
	// /metrics deltas: the hit ratio of the cache its ops go through
	// must lie in [HitLo, HitHi], each MustGrow counter must have risen
	// by at least the given amount, and each MustGrowPerOp counter by at
	// least the given amount per op of the stream completed.
	Cache         string // "result", "answer" or "parse"
	HitLo, HitHi  float64
	MustGrow      map[string]float64
	MustGrowPerOp map[string]float64

	// RSSAfter is how many ops into each server's window its peak
	// memory is read: about half of what two seconds complete on the
	// 2-core sandbox.
	RSSAfter int
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and slices of strings always marshal
	}
	return b
}

func queryOp(kind opKind, class uint8, table, query, want string) op {
	o := op{Kind: kind, Class: class, Table: table, Query: query, Want: want, ID: -1}
	if kind == kindAsk {
		o.body = jsonBody(map[string]any{"table": table, "question": query, "top_k": 7})
	} else {
		o.body = jsonBody(map[string]string{"table": table, "query": query})
	}
	return o
}

func registerOp(t string, cols []string, rows [][]string) op {
	return op{Kind: kindRegister, Class: classOther, Table: t, Cols: cols, Rows: rows, ID: -1,
		body: jsonBody(map[string]any{"name": t, "columns": cols, "rows": rows})}
}

func appendOp(t string, rows [][]string) op {
	return op{Kind: kindAppend, Class: classPrimary, Table: t, Rows: rows, ID: -1,
		body: jsonBody(map[string]any{"rows": rows})}
}

// ---- the harness's own query evaluation (the oracle) ----

func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		panic("generated numeric cell is not an integer: " + s)
	}
	return n
}

func cmpInt(a int, op string, b int) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	case "!=":
		return a != b
	}
	panic("unknown comparison " + op)
}

// aggregate folds the distinct values of column col over the rows that
// match: the query language aggregates sets of values, so duplicates
// count once for sum; min and max are unaffected.
func aggregate(fn string, rows [][]string, col int, match func([]string) bool) (string, bool) {
	seen := map[int]bool{}
	for _, r := range rows {
		if match(r) {
			seen[atoi(r[col])] = true
		}
	}
	if len(seen) == 0 {
		return "", false
	}
	first := true
	acc := 0
	for v := range seen {
		switch {
		case first:
			acc, first = v, false
		case fn == "sum":
			acc += v
		case fn == "min" && v < acc, fn == "max" && v > acc:
			acc = v
		}
	}
	return strconv.Itoa(acc), true
}

func countRows(rows [][]string, match func([]string) bool) string {
	n := 0
	for _, r := range rows {
		if match(r) {
			n++
		}
	}
	return strconv.Itoa(n)
}

// ---- explain queries over the web corpus: the four paper families ----

var (
	cmpOps   = []string{"<", "<=", ">", ">=", "!="}
	families = []string{"lookup", "comparative", "superlative", "aggregate"}
)

type queryGen struct {
	rng *rand.Rand
	t   *tableData
}

func (g *queryGen) pick(cols []int) int { return cols[g.rng.Intn(len(cols))] }
func (g *queryGen) text() int           { return g.pick(g.t.colsOf(colKey, colCat)) }
func (g *queryGen) cat() int            { return g.pick(g.t.colsOf(colCat)) }
func (g *queryGen) num() int            { return g.pick(g.t.colsOf(colNum)) }
func (g *queryGen) any() int            { return g.rng.Intn(len(g.t.Columns)) }
func (g *queryGen) row() []string       { return g.t.Rows[g.rng.Intn(len(g.t.Rows))] }
func (g *queryGen) name(c int) string   { return g.t.Columns[c] }

// threshold draws a comparison literal between the column's smallest and
// largest cell, so x need not occur in the table (texts stay distinct on
// small tables) while `>= x` and `<= x` always match a row.
func (g *queryGen) threshold(c int) int {
	lo, hi := atoi(g.t.Rows[0][c]), atoi(g.t.Rows[0][c])
	for _, r := range g.t.Rows {
		v := atoi(r[c])
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo + g.rng.Intn(hi-lo+1)
}

func (g *queryGen) lookup() (string, string) {
	r := g.row()
	c := g.text()
	join := g.name(c) + "." + r[c]
	switch g.rng.Intn(3) {
	case 0:
		return join, ""
	case 1:
		return "R[" + g.name(g.any()) + "]." + join, ""
	default:
		c2 := g.text()
		return "(" + join + " u " + g.name(c2) + "." + r[c2] + ")", ""
	}
}

func (g *queryGen) comparative() (string, string) {
	n := g.num()
	cmp := g.name(n) + cmpOps[g.rng.Intn(len(cmpOps))] + strconv.Itoa(g.threshold(n))
	switch g.rng.Intn(4) {
	case 0:
		return cmp, ""
	case 1:
		return "R[" + g.name(g.any()) + "]." + cmp, ""
	case 2:
		r, c := g.row(), g.text()
		shift := "Prev."
		if g.rng.Intn(2) == 0 {
			shift = "R[Prev]."
		}
		return "R[" + g.name(g.any()) + "]." + shift + g.name(c) + "." + r[c], ""
	default:
		r, c := g.row(), g.cat()
		return "(" + cmp + " u " + g.name(c) + "." + r[c] + ")", ""
	}
}

func (g *queryGen) superlative() (string, string) {
	fn := []string{"argmax", "argmin"}[g.rng.Intn(2)]
	switch g.rng.Intn(4) {
	case 0:
		n := g.num()
		return fn + "(" + g.name(n) + ">=" + strconv.Itoa(g.threshold(n)) + ", " + g.name(g.num()) + ")", ""
	case 1:
		r, c := g.row(), g.cat()
		return "R[" + g.name(g.any()) + "]." + fn + "(" + g.name(c) + "." + r[c] + ", Index)", ""
	case 2:
		c := g.cat()
		return "argmax((" + g.row()[c] + " or " + g.row()[c] + "), R[λx.count(" + g.name(c) + ".x)])", ""
	default:
		c := g.cat()
		return fn + "((" + g.row()[c] + " or " + g.row()[c] + "), R[λx.R[" + g.name(g.num()) + "]." + g.name(c) + ".x])", ""
	}
}

func (g *queryGen) aggregate() (string, string) {
	rows := g.t.Rows
	switch g.rng.Intn(5) {
	case 0:
		r, c := g.row(), g.cat()
		return "count(" + g.name(c) + "." + r[c] + ")",
			countRows(rows, func(x []string) bool { return x[c] == r[c] })
	case 1:
		n, op := g.num(), cmpOps[g.rng.Intn(len(cmpOps))]
		x := g.threshold(n)
		return "count(" + g.name(n) + op + strconv.Itoa(x) + ")",
			countRows(rows, func(r []string) bool { return cmpInt(atoi(r[n]), op, x) })
	case 2:
		r, c, n := g.row(), g.cat(), g.num()
		fn := []string{"min", "max"}[g.rng.Intn(2)]
		want, _ := aggregate(fn, rows, n, func(x []string) bool { return x[c] == r[c] })
		return fn + "(R[" + g.name(n) + "]." + g.name(c) + "." + r[c] + ")", want
	case 3:
		n, v := g.num(), g.num()
		op := []string{">=", "<="}[g.rng.Intn(2)]
		x := g.threshold(n)
		want, _ := aggregate("sum", rows, v, func(r []string) bool { return cmpInt(atoi(r[n]), op, x) })
		return "sum(R[" + g.name(v) + "]." + g.name(n) + op + strconv.Itoa(x) + ")", want
	default:
		c := g.cat()
		a, b := g.row()[c], g.row()[c]
		na := atoi(countRows(rows, func(x []string) bool { return x[c] == a }))
		nb := atoi(countRows(rows, func(x []string) bool { return x[c] == b }))
		return "sub(count(" + g.name(c) + "." + a + "), count(" + g.name(c) + "." + b + "))", strconv.Itoa(na - nb)
	}
}

func (g *queryGen) family(f int) (string, string) {
	switch f {
	case 0:
		return g.lookup()
	case 1:
		return g.comparative()
	case 2:
		return g.superlative()
	default:
		return g.aggregate()
	}
}

var webSizes = []int{10, 16, 30, 60, 120, 250}

func sizeClass(rows int) int {
	for i, n := range webSizes {
		if rows == n {
			return i
		}
	}
	panic("not a web table size: " + strconv.Itoa(rows))
}

// explainClass puts explains on tables over the sampling threshold in
// the primary class and the rest in the alt class.
func explainClass(t *tableData) uint8 {
	if len(t.Rows) > sampleThreshold {
		return classPrimary
	}
	return classAlt
}

// explainPool draws perTable distinct queries per table, an equal share
// from each family.
func explainPool(rng *rand.Rand, tables []*tableData, perTable int) []op {
	var pool []op
	for _, t := range tables {
		g := &queryGen{rng: rng, t: t}
		seen := map[string]bool{}
		for f := range families {
			for n, tries := 0, 0; n < perTable/len(families); tries++ {
				if tries > 100*perTable {
					panic(fmt.Sprintf("table %s: cannot draw %d distinct %s queries", t.Name, perTable/len(families), families[f]))
				}
				q, want := g.family(f)
				if seen[q] {
					continue
				}
				seen[q] = true
				o := queryOp(kindExplain, explainClass(t), t.Name, q, want)
				o.stratum = sizeClass(len(t.Rows))*len(families) + f
				pool = append(pool, o)
				n++
			}
		}
	}
	return pool
}

// explainWarmup issues one query per family per column per table, so
// every lazily built index exists before the window and only the
// caches miss inside it.
func explainWarmup(tables []*tableData) []op {
	var ops []op
	for _, t := range tables {
		r := t.Rows[0]
		for c, k := range t.kinds {
			name := t.Columns[c]
			ops = append(ops, queryOp(kindExplain, classOther, t.Name, name+"."+r[c], ""))
			if k == colNum {
				ops = append(ops,
					queryOp(kindExplain, classOther, t.Name, name+">="+r[c], ""),
					queryOp(kindExplain, classOther, t.Name, "argmax(Record, "+name+")", ""),
					queryOp(kindExplain, classOther, t.Name, "max(R["+name+"].Record)", ""))
			}
		}
	}
	return ops
}

func shuffled(rng *rand.Rand, ops []op) []op {
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].ID = i
	}
	return ops
}

func registered(tables []*tableData) map[string]int {
	m := make(map[string]int, len(tables))
	for _, t := range tables {
		m[t.Name] = len(t.Rows)
	}
	return m
}

func genExplainCold(seed int64) *workload {
	web := genWeb(seed)
	return &workload{
		Name:   "explain_cold",
		Tables: web,
		Warmup: explainWarmup(web),
		Ops:    shuffled(subRand(seed, "explain/order"), explainPool(subRand(seed, "explain/pool"), web, coldPerTable)),
		Final:  registered(web),
		Cache:  "result", HitHi: 0.05, RSSAfter: 2500,
	}
}

// hotZipfOffset flattens the head of the popularity curve: with the
// textbook offset of 1 the top query alone is a fifth of the traffic and
// ten queries are over half of it, so whichever ten a seed happens to
// draw set the medians. With 16 the top query is 2.5 % and the curve
// still decays as rank^-1.1.
const hotZipfOffset = 16

func genExplainHot(seed int64) *workload {
	web := genWeb(seed)
	// The hot set is 256 entries of the cold pool, so both workloads run
	// the same kind of query on the same tables and differ only in reuse.
	// Rank r always holds a query of the same table size and family, so
	// the popular head is made of the same kinds of query under every
	// seed; which query of that kind it is, the seed decides.
	pool := shuffled(subRand(seed, "explain/order"), explainPool(subRand(seed, "explain/pool"), web, coldPerTable))
	strata := make([][]op, len(webSizes)*len(families))
	for _, o := range pool {
		strata[o.stratum] = append(strata[o.stratum], o)
	}
	set := make([]op, hotQueries)
	for r := range set {
		size, family := r%len(webSizes), (r+r/len(webSizes))%len(families)
		// Alternate the classes: even ranks over the sampling threshold.
		if size%2 == 0 {
			size = 3 + size/2
		} else {
			size = size / 2
		}
		st := size*len(families) + family
		set[r], strata[st] = strata[st][0], strata[st][1:]
		set[r].ID = r
	}
	rng := subRand(seed, "explain/zipf")
	zipf := rand.NewZipf(rng, 1.1, hotZipfOffset, hotQueries-1)
	stream := make([]op, hotStream)
	for i := range stream {
		stream[i] = set[zipf.Uint64()]
	}
	warm := make([]op, 0, 2*len(set))
	for pass := 0; pass < 2; pass++ {
		for _, o := range set {
			o.Class = classOther
			warm = append(warm, o)
		}
	}
	return &workload{Name: "explain_hot", Tables: web, Warmup: warm, Ops: stream, Final: registered(web),
		Cache: "result", HitLo: 0.95, HitHi: 1, RSSAfter: 4000}
}

// ---- ask: NL questions over the web corpus ----

// questions draws distinct NL questions grounded in a table's headers
// and cells, covering the trigger words the semantic parser reacts to.
func questions(rng *rand.Rand, t *tableData, n int) []string {
	g := &queryGen{rng: rng, t: t}
	lower := func(c int) string { return strings.ToLower(t.Columns[c]) }
	seen := map[string]bool{}
	var out []string
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			panic(fmt.Sprintf("table %s: cannot draw %d distinct questions", t.Name, n))
		}
		c, num := g.text(), g.num()
		v, w := g.row()[c], g.row()[c]
		var q string
		switch g.rng.Intn(10) {
		case 0:
			q = fmt.Sprintf("what is the %s of %s", lower(num), v)
		case 1:
			q = fmt.Sprintf("which %s has the highest %s above %d", lower(g.text()), lower(num), g.threshold(num))
		case 2:
			q = fmt.Sprintf("how many rows have %s more than %d", lower(num), g.threshold(num))
		case 3:
			q = fmt.Sprintf("what %s comes after %s", lower(g.text()), v)
		case 4:
			q = fmt.Sprintf("what is the total %s of %s", lower(num), v)
		case 5:
			q = fmt.Sprintf("what is the difference in %s between %s and %s", lower(num), v, w)
		case 6:
			q = fmt.Sprintf("who has more %s %s or %s", lower(num), v, w)
		case 7:
			q = fmt.Sprintf("what was the first %s of %s", lower(g.any()), v)
		case 8:
			q = fmt.Sprintf("what is the lowest %s for %s", lower(num), v)
		default:
			q = fmt.Sprintf("how many %s did %s have", lower(num), v)
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

func genAsk(seed int64) *workload {
	web := genWeb(seed)
	rng := subRand(seed, "ask/pool")
	var pool, warm []op
	for _, t := range web {
		qs := questions(rng, t, askPerTable+2)
		for _, q := range qs[:askPerTable] {
			pool = append(pool, queryOp(kindAsk, classPrimary, t.Name, q, ""))
		}
		// Two questions per table outside the pool: they build the
		// table's indexes and candidate machinery without seeding the
		// parse cache with a pool entry.
		for _, q := range qs[askPerTable:] {
			warm = append(warm, queryOp(kindAsk, classOther, t.Name, q, ""))
		}
	}
	return &workload{Name: "ask", Tables: web, Warmup: warm,
		Ops: shuffled(subRand(seed, "ask/order"), pool), Final: registered(web),
		Cache: "parse", HitHi: 0.05, RSSAfter: 150}
}

// ---- scan: answer queries over the big table ----

// scanPattern is one period of the scan mix: 25 ops, 15 full-scan-class
// (9 aggregates over a != subset, 2 != counts, 2 subset superlatives,
// 2 half-table Seq ranges) and 10 selective (7 one-percent Tick ranges
// through the zone maps, 3 single-row Seq ranges through the sorted
// index). One family holds over half of each class, so a class median
// always falls inside one family and never between two modes. The
// aggregates lead the full-scan class because they read a cell of every
// row; a != count only emits row numbers.
const scanPattern = "azasawazpnazpazaszawpzanz"

// Floors that hold the scan workload to its claim, per op of the
// stream, on the server's own counters: every full-scan-class op (0.6
// of the stream) runs at least one kernel over all 4 morsels of the
// table, and every Tick range (0.28 of the stream) has at least one
// morsel skipped for it.
const (
	scanMorselsPerOp = 0.6 * bigRows / morselLen
	scanSkipsPerOp   = 0.25
)

func genScan(seed int64) *workload {
	big := genBig(seed)
	rng := subRand(seed, "scan/pool")
	n := len(big.Rows)
	const (
		cNation = 2
		cGames  = 4
		cScore  = 5
	)
	byGames := map[int][]int{}
	for i, r := range big.Rows {
		g := atoi(r[cGames])
		byGames[g] = append(byGames[g], i)
	}
	notExcluded := func(x int) func([]string) bool {
		return func(r []string) bool { return atoi(r[cGames]) != x }
	}
	// Aggregates over `Games != x` leave out at most a handful of rows;
	// the oracle is the whole-column aggregate unless a left-out row
	// carries a value no other row has.
	valueRows := map[int]int{}
	for _, r := range big.Rows {
		valueRows[atoi(r[cScore])]++
	}
	whole := map[string]string{}
	for _, fn := range []string{"min", "max", "sum"} {
		whole[fn], _ = aggregate(fn, big.Rows, cScore, func([]string) bool { return true })
	}
	aggWant := func(fn string, x int) string {
		gone := map[int]int{}
		for _, i := range byGames[x] {
			gone[atoi(big.Rows[i][cScore])]++
		}
		for v, k := range gone {
			if valueRows[v] == k {
				want, _ := aggregate(fn, big.Rows, cScore, notExcluded(x))
				return want
			}
		}
		return whole[fn]
	}
	usedX, usedLo := map[int]bool{}, map[string]bool{}
	freshX := func() int {
		for {
			if x := rng.Intn(1000000); !usedX[x] {
				usedX[x] = true
				return x
			}
		}
	}
	// rangeOp counts the rows of a range of span rows on col. The NaN in
	// Tick's last row compares equal to every number, so it is in every
	// Tick range, on top of the span rows that hold the numbers.
	rangeOp := func(col string, class uint8, span int) op {
		for {
			lo := rng.Intn(n - span)
			key := col + strconv.Itoa(span) + "/" + strconv.Itoa(lo)
			if usedLo[key] {
				continue
			}
			usedLo[key] = true
			want := span
			if col == "Tick" {
				want++
			}
			q := fmt.Sprintf("count((%s>=%d u %s<=%d))", col, lo, col, lo+span-1)
			return queryOp(kindAnswer, class, "big", q, strconv.Itoa(want))
		}
	}
	pool := make([]op, 0, scanPool)
	for i := 0; len(pool) < scanPool; i++ {
		var o op
		switch scanPattern[i%len(scanPattern)] {
		case 'a':
			fn, x := []string{"min", "max", "sum"}[rng.Intn(3)], freshX()
			o = queryOp(kindAnswer, classPrimary, "big", fmt.Sprintf("%s(R[Score].Games!=%d)", fn, x), aggWant(fn, x))
		case 'n':
			x := freshX()
			o = queryOp(kindAnswer, classPrimary, "big", fmt.Sprintf("count(Games!=%d)", x), strconv.Itoa(n-len(byGames[x])))
		case 's':
			fn := []string{"argmax", "argmin"}[rng.Intn(2)]
			x := freshX()
			for x >= 900000 { // keep a tenth of the table in the subset at the least
				x = freshX()
			}
			o = queryOp(kindAnswer, classPrimary, "big", fmt.Sprintf("R[Nation].%s(Games>=%d, Score)", fn, x), "")
		case 'w':
			o = rangeOp("Seq", classPrimary, n/2)
		case 'z':
			o = rangeOp("Tick", classAlt, n/100)
		case 'p':
			o = rangeOp("Seq", classAlt, 1)
		}
		if o.Class == classPrimary {
			o.Scan = n
		}
		o.ID = len(pool)
		pool = append(pool, o)
	}
	// Warm-up: one op of each family, enough to build the zone maps and
	// the numeric indexes the scans consult.
	warm := []op{
		queryOp(kindAnswer, classOther, "big", "max(R[Score].Games!=1)", ""),
		queryOp(kindAnswer, classOther, "big", "count(Games!=1)", ""),
		queryOp(kindAnswer, classOther, "big", "R[Nation].argmax(Games>=1, Score)", ""),
		queryOp(kindAnswer, classOther, "big", "count((Seq>=1 u Seq<=2))", "2"),
		queryOp(kindAnswer, classOther, "big", "count((Tick>=1 u Tick<=2))", "3"),
		queryOp(kindAnswer, classOther, "big", "count("+big.Columns[cNation]+"."+big.Rows[0][cNation]+")", ""),
	}
	return &workload{Name: "scan", CSV: []*tableData{big}, Warmup: warm, Ops: pool, Final: registered([]*tableData{big}),
		Cache: "answer", HitHi: 0.05, RSSAfter: 300,
		MustGrowPerOp: map[string]float64{"engine_exec_parallel_morsels": scanMorselsPerOp, "engine_exec_morsels_skipped": scanSkipsPerOp}}
}

// ---- mutate: lockstep writer and reader over 16 live tables ----

// genMutate builds one full period of the mutation cycle. Step i
// mutates table i%16 — register at 64 rows, 56 appends of 8 rows up to
// 512, drop, and round again — while the paired read queries the table
// mutated just before, whose cached results that mutation purged. The
// tables start spread evenly over the cycle, so table sizes are
// stationary; appended rows are a function of (table, position), so
// after one period every table is back where it started and the stream
// can be cycled for as long as the window lasts.
func genMutate(seed int64) *workload {
	rng := subRand(seed, "mutate")
	type mtab struct {
		name  string
		cols  []string
		all   [][]string // the 512 rows the table grows through
		phase int        // 0: absent, p in 1..57: live with 64+8(p-1) rows
		kinds []colKind
	}
	tabs := make([]*mtab, mutTables)
	w := &workload{
		Name:        "mutate",
		ServerFlags: []string{"-checkpoint-bytes", "131072"},
		Final:       map[string]int{},
		Cache:       "result",
		HitHi:       0.05,
		MustGrow:    map[string]float64{"store_checkpoint_count": 2},
		RSSAfter:    250,

		PairsPerSecond: 240,
	}
	rowsAt := func(phase int) int { return mutStartRows + mutBatchRows*(phase-1) }
	for k := range tabs {
		t := newTable(fmt.Sprintf("mut_%02d", k), mutSchema, newRowMaker(rng, mutSchema), mutMaxRows)
		tabs[k] = &mtab{name: t.Name, cols: t.Columns, all: t.Rows, kinds: t.kinds, phase: k * mutCycle / mutTables}
		if p := tabs[k].phase; p > 0 {
			w.Tables = append(w.Tables, &tableData{Name: t.Name, Columns: t.Columns, Rows: t.Rows[:rowsAt(p)], kinds: t.kinds})
			w.Final[t.Name] = rowsAt(p)
		}
	}
	live := func(m *mtab) *tableData {
		return &tableData{Name: m.name, Columns: m.cols, Rows: m.all[:rowsAt(m.phase)], kinds: m.kinds}
	}
	steps := mutTables * mutCycle
	for i := 0; i < steps; i++ {
		m := tabs[i%mutTables]
		var o op
		switch {
		case m.phase == 0:
			o = registerOp(m.name, m.cols, m.all[:mutStartRows])
			m.phase = 1
		case m.phase == mutCycle-1:
			o = op{Kind: kindDrop, Class: classOther, Table: m.name, ID: -1}
			m.phase = 0
		default:
			o = appendOp(m.name, m.all[rowsAt(m.phase):rowsAt(m.phase+1)])
			m.phase++
		}
		w.Ops = append(w.Ops, o)

		// The read runs while this step's mutation does, so it targets the
		// most recently mutated table that is live and is not m — as that
		// table stood before this step.
		var target *mtab
		for back := 1; back < mutTables && target == nil; back++ {
			if c := tabs[((i-back)%mutTables+mutTables)%mutTables]; c != m && c.phase > 0 {
				target = c
			}
		}
		g := &queryGen{rng: rng, t: live(target)}
		q, want := g.aggregate()
		r := queryOp(kindExplain, classAlt, target.name, q, want)
		r.ID = i
		w.Reads = append(w.Reads, r)
	}
	for k, m := range tabs {
		if m.phase != k*mutCycle/mutTables {
			panic("mutate period does not return to its start")
		}
	}
	return w
}

var workloadGens = map[string]func(int64) *workload{
	"ask":          genAsk,
	"explain_cold": genExplainCold,
	"explain_hot":  genExplainHot,
	"scan":         genScan,
	"mutate":       genMutate,
}

// ---- input fingerprint ----

func hashStrings(h hash.Hash, ss ...string) {
	var n [4]byte
	for _, s := range ss {
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
}

func hashRows(h hash.Hash, rows [][]string) {
	hashStrings(h, strconv.Itoa(len(rows)))
	for _, r := range rows {
		hashStrings(h, r...)
	}
}

func hashOps(h hash.Hash, ops []op) {
	hashStrings(h, strconv.Itoa(len(ops)))
	for _, o := range ops {
		hashStrings(h, strconv.Itoa(int(o.Kind)), strconv.Itoa(int(o.Class)), o.Table, o.Query, o.Want, strconv.Itoa(o.ID), string(o.body))
	}
}

// fingerprint is the SHA-256 of everything the workload sends — server
// flags, tables, warm-up and op stream — and of the counts that fix how
// much of it a server is sent. Two results are comparable only
// when their fingerprints are equal.
func (w *workload) fingerprint() string {
	h := sha256.New()
	hashStrings(h, w.Name, strconv.Itoa(w.PairsPerSecond), strconv.Itoa(w.RSSAfter))
	hashStrings(h, w.ServerFlags...)
	for _, t := range append(append([]*tableData(nil), w.CSV...), w.Tables...) {
		hashStrings(h, t.Name)
		hashStrings(h, t.Columns...)
		hashRows(h, t.Rows)
	}
	hashOps(h, w.Warmup)
	hashOps(h, w.Ops)
	hashOps(h, w.Reads)
	names := make([]string, 0, len(w.Final))
	for name, rows := range w.Final {
		names = append(names, name+"="+strconv.Itoa(rows))
	}
	sort.Strings(names)
	hashStrings(h, names...)
	return hex.EncodeToString(h.Sum(nil))
}
