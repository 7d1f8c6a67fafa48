package dcs_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	. "nlexplain/internal/dcs"
	"nlexplain/internal/oracle"
	"nlexplain/internal/provenance"
	"nlexplain/internal/qrand"
	"nlexplain/internal/semparse"
	"nlexplain/internal/table"
	"nlexplain/internal/wikitables"
)

// levelCells lists a provenance level's cells row-major.
func levelCells(l table.Level) []table.CellRef { return slices.Collect(l.All()) }

// assertProvenanceMatchesReference computes the provenance of e on tab
// in every execution mode and holds each level, the aggregate functions
// and the header markers to oracle.Provenance, which evaluates every
// sub-expression on its own. It reports whether the reference could
// evaluate e.
func assertProvenanceMatchesReference(t *testing.T, e Expr, tab *table.Table) bool {
	t.Helper()
	want, werr := oracle.Provenance(e, tab)
	for _, mode := range execModes {
		c, err := Compile(e, tab)
		if err != nil {
			if werr == nil {
				t.Errorf("%s: %s (%s): compile fails, the reference does not: %v", tab.Name(), e, mode.name, err)
			}
			return false
		}
		c.Exec = mode.x
		got, _, err := provenance.ComputeCompiledCtx(nil, c, tab)
		if (err != nil) != (werr != nil) {
			t.Errorf("%s: %s (%s): provenance error %v, reference error %v", tab.Name(), e, mode.name, err, werr)
			continue
		}
		if err != nil {
			continue
		}
		for _, l := range []struct {
			name      string
			got, want []table.CellRef
		}{
			{"PO", levelCells(got.Output), want.Output},
			{"PE", levelCells(got.Execution), want.Execution},
			{"PC", levelCells(got.Columns), want.Columns},
		} {
			if !slices.Equal(l.got, l.want) {
				t.Errorf("%s: %s (%s): %s = %v, the definition gives %v", tab.Name(), e, mode.name, l.name, l.got, l.want)
			}
		}
		if !slices.Equal(got.Aggrs, want.Aggrs) || !maps.Equal(got.HeaderAggrs, want.HeaderAggrs) {
			t.Errorf("%s: %s (%s): aggregates %v on headers %v, the definition gives %v on %v",
				tab.Name(), e, mode.name, got.Aggrs, got.HeaderAggrs, want.Aggrs, want.HeaderAggrs)
		}
	}
	return werr == nil
}

// TestProvenanceMatchesDefinition holds provenance.Compute, which reads
// PE off one traced execution as the union of every operator's witness
// cells, to Definition 4.1 evaluated literally — PE as the union of PO
// over every sub-query — level by level, serial, forked and through the
// zone maps, over the differential corpus, seeded qrand queries and
// every candidate semparse generates for the default dataset.
func TestProvenanceMatchesDefinition(t *testing.T) {
	evaluated := map[string]int{}
	for _, tc := range diffCorpus {
		if assertProvenanceMatchesReference(t, MustParse(tc.src), fixtureByName(t, tc.table)) {
			evaluated["corpus"]++
		}
	}
	rng := rand.New(rand.NewSource(18))
	var tab *table.Table
	for i := 0; i < 2000; i++ {
		if i%20 == 0 {
			tab = qrand.Table(rng)
		}
		if assertProvenanceMatchesReference(t, qrand.Query(rng, tab, 1+rng.Intn(3)), tab) {
			evaluated["qrand"]++
		}
	}
	ds := wikitables.Generate(wikitables.DefaultOptions())
	examples := append(ds.Train, ds.Test...)
	step := 1
	if testing.Short() || raceEnabled {
		step = 16 // every 16th question's pool
	}
	for i := 0; i < len(examples); i += step {
		ex := examples[i]
		for _, c := range semparse.GenerateCandidates(semparse.Analyze(ex.Question, ex.Table), ex.Table, nil) {
			if assertProvenanceMatchesReference(t, c.Query, ex.Table) {
				evaluated["candidates"]++
			}
		}
		if t.Failed() {
			break
		}
	}
	t.Logf("queries evaluated by the reference: %v", evaluated)
	for set, atLeast := range map[string]int{"corpus": 60, "qrand": 1000, "candidates": 1000} {
		if evaluated[set] < atLeast {
			t.Errorf("%s: %d queries evaluated, want at least %d", set, evaluated[set], atLeast)
		}
	}
}
