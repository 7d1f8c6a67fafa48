package experiments

import (
	"fmt"
	"strings"

	"nlexplain/internal/dcs"
)

// candidateFamilies are the shapes the candidate generator composes, in
// the order it builds them.
var candidateFamilies = []string{"records", "projection", "prev-next", "superlative", "index-superlative",
	"most-frequent", "compare-values", "aggregate", "difference"}

// candidateFamily names the generator family a candidate query belongs
// to, read off its outermost operators.
func candidateFamily(e dcs.Expr) string {
	switch x := e.(type) {
	case *dcs.ColumnValues:
		switch x.Records.(type) {
		case *dcs.Prev, *dcs.Next:
			return "prev-next"
		case *dcs.ArgRecords:
			return "superlative"
		}
		return "projection"
	case *dcs.IndexSuperlative:
		return "index-superlative"
	case *dcs.MostFrequent:
		return "most-frequent"
	case *dcs.CompareValues:
		return "compare-values"
	case *dcs.Aggregate:
		return "aggregate"
	case *dcs.Sub:
		return "difference"
	}
	return "records"
}

// FamilyRow is one candidate family over the test questions.
type FamilyRow struct {
	Family string
	// Candidates is how many pool members the family contributed and
	// Shown how many of them ranked in the top k.
	Candidates, Shown int
	// Questions counts the questions whose pool holds a member, and
	// QuestionsShown those where a member ranks in the top k.
	Questions, QuestionsShown int
}

// FamiliesResult reports, per candidate family, its share of the pool
// and how often it reaches the k candidates a user is shown. It
// reports and prunes nothing: a family that never ranks is still the
// error profile the paper's user study corrects.
type FamiliesResult struct {
	K          int
	Questions  int
	Candidates int
	Rows       []FamilyRow
}

// RunCandidateFamilies ranks every test question's pool with the
// trained parser and tallies the families.
func (e *Env) RunCandidateFamilies(k int) FamiliesResult {
	rows := make(map[string]*FamilyRow, len(candidateFamilies))
	res := FamiliesResult{K: k, Questions: len(e.Dataset.Test)}
	for _, ex := range e.Dataset.Test {
		inPool, inTopK := map[string]bool{}, map[string]bool{}
		for rank, c := range e.Parser.ParseAll(ex.Question, ex.Table) {
			family := candidateFamily(c.Query)
			row := rows[family]
			if row == nil {
				row = &FamilyRow{Family: family}
				rows[family] = row
			}
			res.Candidates++
			row.Candidates++
			inPool[family] = true
			if rank < k {
				row.Shown++
				inTopK[family] = true
			}
		}
		for family := range inPool {
			rows[family].Questions++
		}
		for family := range inTopK {
			rows[family].QuestionsShown++
		}
	}
	for _, family := range candidateFamilies {
		if row := rows[family]; row != nil {
			res.Rows = append(res.Rows, *row)
		}
	}
	return res
}

// String renders the report.
func (r FamiliesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Candidate families (%d test questions, %d candidates, top-%d shown)\n", r.Questions, r.Candidates, r.K)
	fmt.Fprintf(&b, "  %-18s %10s %12s %26s\n", "family", "pool share", "top-k share", "questions with one in top-k")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %9.1f%% %11.1f%% %15d of %d\n", row.Family,
			100*float64(row.Candidates)/float64(max(r.Candidates, 1)),
			100*float64(row.Shown)/float64(max(r.Questions*r.K, 1)),
			row.QuestionsShown, row.Questions)
	}
	return b.String()
}
