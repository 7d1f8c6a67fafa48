// Package workload synthesizes reproducible query traffic for the
// explanation engine and drives it against a target — either an
// in-process engine.Engine or a live wtq-server over HTTP — tallying
// each op's outcome class (ok, client error, timeout, shed, internal,
// transport), cache hits and the engine's counters. It checks
// behaviour under load — snapshot isolation, shedding, deadlines,
// durability, HTTP and in-process agreement — and times nothing:
// speed is measured by benchmark/ (BENCHMARK.json).
//
// The pieces compose as:
//
//	corpus, ops := workload.Generate(seed, mix, n)     // deterministic tables + op stream
//	tgt := workload.NewInProc(engine.New(engineOpts)) // or NewHTTPTarget(url)
//	report, err := workload.Run(ctx, tgt, corpus, ops, driverOpts)
//
// Generated traffic covers the paper's query families (lookups,
// comparatives, superlatives, aggregates), NL parsing, batch requests,
// table churn, and an adversarial mix of malformed and
// overload-inducing queries. Everything downstream of a seed is
// deterministic: same seed + mix + count -> byte-identical op stream,
// so a failing run replays.
//
// Only tests link the package; make vet fails if a command, an
// example or the library does.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"nlexplain/internal/table"
)

// Corpus table names, smallest to largest. All share one schema so
// every query family applies to every table; sizes differ so mixes
// exercise both the sampling path (large grids) and the dense path.
// TableHuge exists for the adversarial hog family only: it is big
// enough that one uncached hog computation takes real CPU time, which
// is what lets overload tests fill the engine's pending set.
const (
	TableSmall = "wl_small"
	TableMid   = "wl_mid"
	TableLarge = "wl_large"
	TableHuge  = "wl_huge"
)

// corpusSizes fixes the row count per table.
var corpusSizes = map[string]int{TableSmall: 12, TableMid: 64, TableLarge: 256, TableHuge: 2048}

// mixTables are the tables ordinary (non-hog) families draw from.
var mixTables = []string{TableSmall, TableMid, TableLarge}

// The shared schema: two text columns, two numeric columns, one
// low-cardinality category column (same shape qrand uses for its
// property tests, so every operator class has something to chew on).
var corpusColumns = []string{"Nation", "City", "Year", "Games", "Result"}

var (
	nations = []string{"Greece", "France", "China", "UK", "Brazil", "Fiji", "Tonga", "Samoa", "Nauru", "Tahiti"}
	cities  = []string{"Athens", "Paris", "Beijing", "London", "Rio", "Suva", "Apia", "Sydney", "Tokyo", "Rome"}
	results = []string{"1st Round", "2nd Round", "3rd Round", "4th Round", "Did not qualify", "Final"}
)

var (
	numericColumns = []string{"Year", "Games"}
	textColumns    = []string{"Nation", "City", "Result"}
	anyColumns     = corpusColumns
)

// Corpus is the deterministic set of tables a workload runs over.
type Corpus struct {
	Tables []*table.Table
	byName map[string]*table.Table
}

// NewCorpus builds the four standard workload tables from a seed. The
// same seed always yields byte-identical tables (and therefore
// identical engine table versions), so cache-hit ratios are comparable
// between two runs of the same seed.
func NewCorpus(seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{byName: make(map[string]*table.Table)}
	for _, name := range []string{TableSmall, TableMid, TableLarge, TableHuge} {
		rows := make([][]string, corpusSizes[name])
		for r := range rows {
			rows[r] = []string{
				nations[rng.Intn(len(nations))],
				cities[rng.Intn(len(cities))],
				strconv.Itoa(1896 + rng.Intn(40)*4),
				strconv.Itoa(rng.Intn(300)),
				results[rng.Intn(len(results))],
			}
		}
		t, err := table.New(name, corpusColumns, rows)
		if err != nil {
			panic(fmt.Sprintf("building corpus table %s: %v", name, err)) // unreachable: shapes are fixed
		}
		c.Tables = append(c.Tables, t)
		c.byName[name] = t
	}
	return c
}

// Table returns a corpus table by name.
func (c *Corpus) Table(name string) (*table.Table, bool) {
	t, ok := c.byName[name]
	return t, ok
}
