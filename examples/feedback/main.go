// Feedback: the human-in-the-loop training cycle of Sections 6.2-6.3 in
// miniature.
//
// Two candidate queries answer the question "What was the last year the
// team was a part of the USL A-League?" identically (2004, Figure 8),
// so answer supervision cannot separate them. A user, reading the
// explanations, annotates the correct query; retraining on the
// question-query pair (Eq. 8) teaches the parser to rank it first.
package main

import (
	"fmt"
	"log"

	"nlexplain"
)

func main() {
	t, err := nlexplain.NewTable("usl",
		[]string{"Year", "League", "Attendance", "Open Cup"},
		[][]string{
			{"2002", "USL A-League", "6,260", "Did not qualify"},
			{"2003", "USL A-League", "5,871", "Did not qualify"},
			{"2004", "USL A-League", "5,628", "4th Round"},
			{"2005", "USL First Division", "6,028", "4th Round"},
			{"2006", "USL First Division", "5,575", "3rd Round"},
		})
	if err != nil {
		log.Fatal(err)
	}

	question := "What was the last year the team was a part of the USL A-League?"
	gold := `R[Year].argmax(League."USL A-League", Index)`

	parser := nlexplain.NewParser()
	show := func(stage string) bool {
		cands, err := nlexplain.ExplainQuestion(parser, question, t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", stage)
		topIsGold := false
		for _, ce := range cands[:min(3, len(cands))] {
			marker := " "
			if ce.Candidate.Key() == gold {
				marker = "*"
				if ce.Rank == 1 {
					topIsGold = true
				}
			}
			fmt.Printf(" %s %d. %s\n      %q\n", marker, ce.Rank, ce.Candidate.Query, ce.Explanation.Utterance)
		}
		fmt.Println()
		return topIsGold
	}

	before := show("before feedback (answer supervision only)")

	// The user reads the explanations and marks the correct query — the
	// feedback of Figure 2. That becomes an annotated training example.
	annotated := &nlexplain.Example{
		ID:          1,
		Question:    question,
		Table:       t,
		Answer:      "2004",
		GoldQuery:   gold,
		Annotations: map[string]bool{gold: true},
	}
	opts := nlexplain.TrainOptions{Epochs: 12, LearningRate: 0.5, L1: 1e-5, Seed: 1}
	parser.Train([]*nlexplain.Example{annotated}, opts)

	after := show("after retraining on the user's annotation (Eq. 8)")
	fmt.Printf("gold ranked first: before=%v after=%v\n", before, after)
}
