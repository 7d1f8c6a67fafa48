// Shipwrecks: the Figure 9 walk-through — identifying the correct query
// through provenance-based highlights.
//
// For "How many more ships were wrecked in lake Huron than in Erie?"
// the parser proposes three candidates. The highlights make it
// immediately visible that the first compares Huron against Erie
// occurrences (correct), the second compares Huron against Superior,
// and the third does not compare occurrences at all.
package main

import (
	"fmt"
	"log"

	"nlexplain"
)

func main() {
	t, err := nlexplain.NewTable("shipwrecks",
		[]string{"Ship", "Vessel", "Lake", "Lives lost"},
		[][]string{
			{"Argus", "Steamer", "Lake Huron", "25 lost"},
			{"Hydrus", "Steamer", "Lake Huron", "28 lost"},
			{"Plymouth", "Barge", "Lake Michigan", "7 lost"},
			{"Issac M. Scott", "Steamer", "Lake Huron", "28 lost"},
			{"Henry B. Smith", "Steamer", "Lake Superior", "all hands"},
			{"Lightship No. 82", "Lightship", "Lake Erie", "6 lost"},
		})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("question: How many more ships were wrecked in lake Huron than in Erie?")
	candidates := []string{
		`sub(count(Lake."Lake Huron"), count(Lake."Lake Erie"))`,     // correct
		`sub(count(Lake."Lake Huron"), count(Lake."Lake Superior"))`, // wrong lake
		`count(argmax(Lake."Lake Huron", "Lives lost"))`,             // no comparison at all
	}
	for i, src := range candidates {
		q, err := nlexplain.ParseQuery(src)
		if err != nil {
			log.Fatal(err)
		}
		ex, err := nlexplain.Explain(q, t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- candidate %d ---\n", i+1)
		fmt.Printf("utterance: %s\n", ex.Utterance)
		fmt.Printf("result:    %s\n", ex.Result)
		fmt.Print(ex.Text())
	}
	fmt.Println("\n" + nlexplain.HighlightLegend())
	fmt.Println("\nthe framed/colored cells of candidate 1 show it comparing Huron")
	fmt.Println("and Erie occurrences — the correct translation.")
}
