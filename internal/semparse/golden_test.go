package semparse_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/semparse"
	"nlexplain/internal/table"
	"nlexplain/internal/wikitables"
)

// The two hashes below pin the parser bit for bit: what it generates,
// how it scores and ranks it, and what training makes of it. They were
// recorded before the generate → featurize → score → rank path was
// rebuilt and no change to that path may move them. A deliberate change
// to the candidate grammar, the feature set or the training rule moves
// them on purpose, in a commit that says so.
const (
	goldenPoolHash    = "a174dbfa9de3aeab3f1988c80c039d56ee70c70e17f942c54ca41b4b077f6c75"
	goldenWeightsHash = "ceedb022fe15b1da6e3c1f0b746d3602acaaa31f624949cfacfe115145ee788c"
)

// pinnedCorpus is every question of the default generated dataset,
// training split first.
func pinnedCorpus() []*semparse.Example {
	ds := wikitables.Generate(wikitables.DefaultOptions())
	return append(append([]*semparse.Example(nil), ds.Train...), ds.Test...)
}

// wideTable is a 250-row, 6-column table whose questions can name more
// entities and numbers than the generator's caps admit.
func wideTable() *table.Table {
	rng := rand.New(rand.NewSource(17))
	rows := make([][]string, 250)
	for i := range rows {
		rows[i] = []string{
			"Player " + strconv.Itoa(i),
			"City" + strconv.Itoa(rng.Intn(24)),
			"Nation" + strconv.Itoa(rng.Intn(40)),
			strconv.Itoa(1900 + rng.Intn(90)),
			strconv.Itoa(rng.Intn(60)),
			strconv.FormatFloat(float64(rng.Intn(1000))/10, 'f', 1, 64),
		}
	}
	return table.MustNew("wide", []string{"Name", "City", "Nation", "Year", "Games", "Score"}, rows)
}

// capsQuestion anchors six entities and three numbers in wideTable:
// more records building blocks than maxRecordsCands (24) keeps and more
// candidates than maxCandidates (512) admits.
const capsQuestion = "how many more games did city3 or city7 of nation5 and nation9 have than player 12 and player 40 after 1950 with over 20 games and under 30.5 score"

var wideQuestions = []string{
	capsQuestion,
	"which nation has the highest score",
	"what is the total games of city3",
	"what year comes right after player 12",
	"what is the average score in nation5 or nation9",
	"which city appears the most",
}

// writePool adds one question's ranked pool to h: per candidate its
// text, score bits, answer and feature pairs in name order.
func writePool(t *testing.T, h hash.Hash, question string, cands []*semparse.Candidate) {
	fmt.Fprintf(h, "Q %s\n", question)
	for _, c := range cands {
		if c.Key() != c.Query.String() {
			t.Errorf("%q: candidate key %q is not its query's text %q", question, c.Key(), c.Query.String())
		}
		answer := "<nil>"
		if c.Result != nil {
			answer = c.Result.AnswerKey()
		}
		fmt.Fprintf(h, "%s\t%016x\t%s", c.Key(), math.Float64bits(c.Score), answer)
		for name, v := range c.Features.All() {
			fmt.Fprintf(h, "\t%s=%016x", name, math.Float64bits(v))
		}
		fmt.Fprintln(h)
	}
}

func TestGoldenPool(t *testing.T) {
	p := semparse.NewUncachedParser()
	h := sha256.New()
	candidates := 0
	for _, ex := range pinnedCorpus() {
		cands := p.ParseAll(ex.Question, ex.Table)
		candidates += len(cands)
		writePool(t, h, ex.Question, cands)
	}
	wide := wideTable()
	for _, q := range wideQuestions {
		cands := p.ParseAll(q, wide)
		candidates += len(cands)
		writePool(t, h, q, cands)
		if q != capsQuestion {
			continue
		}
		records := 0
		for _, c := range cands {
			if c.Result.Type == dcs.RecordsType {
				records++
			}
		}
		if len(cands) != 512 || records != 24 {
			t.Errorf("caps question: %d candidates, %d of them record sets; it should fill both caps (512, 24)", len(cands), records)
		}
	}
	t.Logf("%d candidates hashed", candidates)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenPoolHash {
		t.Errorf("candidate pools hash to %s, pinned %s", got, goldenPoolHash)
	}
}

func TestGoldenTrainedWeights(t *testing.T) {
	ds := wikitables.Generate(wikitables.DefaultOptions())
	p := semparse.NewParser()
	p.Train(ds.Train, semparse.DefaultTrainOptions())
	names := make([]string, 0, len(p.Weights))
	for name := range p.Weights {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s=%016x\n", name, math.Float64bits(p.Weights[name]))
	}
	t.Logf("%d weights hashed", len(names))
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenWeightsHash {
		t.Errorf("trained weights hash to %s, pinned %s", got, goldenWeightsHash)
	}
}

// poolSignature is writePool's rendering of one ranked pool, hashed.
func poolSignature(t *testing.T, question string, cands []*semparse.Candidate) string {
	h := sha256.New()
	writePool(t, h, question, cands)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestParseAllConcurrent has eight goroutines parse the same and
// different questions through one parser, with and without the pool
// memo, and holds every result to a serial run's. The feature table is
// built at start-up and only read after; under -race this also proves
// that nothing shared crept into a question's state.
func TestParseAllConcurrent(t *testing.T) {
	wide := wideTable()
	serial := semparse.NewUncachedParser()
	want := make([]string, len(wideQuestions))
	for i, q := range wideQuestions {
		want[i] = poolSignature(t, q, serial.ParseAll(q, wide))
	}
	for name, p := range map[string]*semparse.Parser{"cached": semparse.NewParser(), "uncached": semparse.NewUncachedParser()} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Even goroutines walk the questions together, odd ones
				// start apart: same and different questions at once.
				for round := 0; round < 2; round++ {
					for k := range wideQuestions {
						i := (k + g%2*g) % len(wideQuestions)
						if got := poolSignature(t, wideQuestions[i], p.ParseAll(wideQuestions[i], wide)); got != want[i] {
							t.Errorf("%s parser, goroutine %d: pool of %q differs from the serial run's", name, g, wideQuestions[i])
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestCachedParserSeesAppendedRows: a table and its Append share a
// name, not their content, and a parser that memoizes pools must not
// serve the one's pool for the other.
func TestCachedParserSeesAppendedRows(t *testing.T) {
	before := table.MustNew("games", []string{"Year", "City"}, [][]string{{"1896", "Athens"}, {"1900", "Paris"}})
	after, err := before.Append([][]string{{"2004", "Athens"}})
	if err != nil {
		t.Fatal(err)
	}
	count := func(p *semparse.Parser, tab *table.Table) string {
		for _, c := range p.ParseAll("how many times athens", tab) {
			if c.Key() == "count(City.Athens)" {
				return c.Result.AnswerKey()
			}
		}
		t.Fatal("count(City.Athens) is not in the pool")
		return ""
	}
	p := semparse.NewParser()
	if got := count(p, before); got != "1" {
		t.Fatalf("count(City.Athens) = %s on the two-row table, want 1", got)
	}
	if got, fresh := count(p, after), count(semparse.NewParser(), after); got != fresh || got != "2" {
		t.Errorf("count(City.Athens) = %s after appending an Athens row, a fresh parser says %s, want 2", got, fresh)
	}
}
