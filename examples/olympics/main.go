// Olympics: the paper's running example (Figure 1 and Section 1).
//
// The question "Greece held its last Olympics in what year?" is parsed
// into candidate lambda DCS queries. Several candidates return the
// correct answer 2004 — but only one is the correct *translation*.
// Explanations (utterances + highlights) let a non-expert tell them
// apart, which matters as soon as the table's data changes.
package main

import (
	"fmt"
	"log"

	"nlexplain"
)

func main() {
	t, err := nlexplain.NewTable("olympics",
		[]string{"Year", "Country", "City"},
		[][]string{
			{"1896", "Greece", "Athens"},
			{"1900", "France", "Paris"},
			{"2004", "Greece", "Athens"},
			{"2008", "China", "Beijing"},
			{"2012", "UK", "London"},
			{"2016", "Brazil", "Rio de Janeiro"},
		})
	if err != nil {
		log.Fatal(err)
	}

	question := "Greece held its last Olympics in what year?"
	p := nlexplain.NewParser()
	candidates, err := nlexplain.ExplainQuestion(p, question, t)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("question: %s\n\n", question)
	for _, ce := range candidates {
		fmt.Printf("candidate %d: %s\n", ce.Rank, ce.Candidate.Query)
		fmt.Printf("  utterance: %s\n", ce.Explanation.Utterance)
		fmt.Printf("  result:    %s\n", ce.Explanation.Result)
	}

	// The user recognizes the correct translation from its utterance:
	// "value of column Year where it is the last row in rows where value
	// of column Country is Greece" — and the highlights confirm which
	// cells it touches.
	correct, err := nlexplain.ParseQuery("R[Year].argmax(Country.Greece, Index)")
	if err != nil {
		log.Fatal(err)
	}
	ex, err := nlexplain.Explain(correct, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchosen query: %s\n%s\n", correct, ex.Utterance)
	fmt.Print(ex.Text())

	// Why query correctness matters beyond answer correctness: rerun on
	// next year's table. Only the correct translation stays right.
	updated, err := nlexplain.NewTable("olympics-2026",
		[]string{"Year", "Country", "City"},
		[][]string{
			{"1896", "Greece", "Athens"},
			{"1900", "France", "Paris"},
			{"2004", "Greece", "Athens"},
			{"2008", "China", "Beijing"},
			{"2012", "UK", "London"},
			{"2016", "Brazil", "Rio de Janeiro"},
			{"2026", "Greece", "Athens"}, // hypothetical future games
		})
	if err != nil {
		log.Fatal(err)
	}
	// "the year in the row right above China's games" also evaluated to
	// 2004 on the original table — a spurious translation.
	spurious, _ := nlexplain.ParseQuery("R[Year].Prev.Country.China")
	for _, q := range []nlexplain.Query{correct, spurious} {
		res, err := nlexplain.ExecuteQuery(q, updated)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\non the updated table, %s -> %s", q, res)
	}
	fmt.Println("\n\nonly the correct translation tracks the data as it evolves.")
}
