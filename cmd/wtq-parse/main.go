// Command wtq-parse is the interactive deployment interface of the
// paper (Figure 2): it parses an NL question over a CSV table into
// ranked candidate lambda DCS queries and explains each with an NL
// utterance and provenance-based highlights, so a non-expert can pick
// the correct one.
//
// Usage:
//
//	wtq-parse -table data.csv -question 'how many games were held in Athens?' [-k 7]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nlexplain"
)

const builtinTable = `Year,Country,City
1896,Greece,Athens
1900,France,Paris
2004,Greece,Athens
2008,China,Beijing
2012,UK,London
2016,Brazil,Rio de Janeiro
`

func main() {
	tablePath := flag.String("table", "", "CSV file with a header row (default: the paper's Olympics example)")
	question := flag.String("question", "Greece held its last Olympics in what year?", "NL question")
	k := flag.Int("k", 7, "number of candidate queries to explain (the paper uses 7)")
	ansi := flag.Bool("ansi", true, "use terminal colors")
	flag.Parse()

	if err := run(os.Stdout, *tablePath, *question, *k, *ansi); err != nil {
		fmt.Fprintln(os.Stderr, "wtq-parse:", err)
		os.Exit(1)
	}
}

// run parses question over the table at tablePath (the built-in
// Olympics table when empty), explains its top k candidates and writes
// them to w.
func run(w io.Writer, tablePath, question string, k int, ansi bool) error {
	var t *nlexplain.Table
	var err error
	if tablePath == "" {
		t, err = nlexplain.TableFromCSV("olympics", strings.NewReader(builtinTable))
	} else {
		f, ferr := os.Open(tablePath)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		t, err = nlexplain.TableFromCSV(tablePath, f)
	}
	if err != nil {
		return err
	}

	p := nlexplain.NewParser()
	p.TopK = k
	out, err := nlexplain.ExplainQuestion(p, question, t)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "question: %s\n", question)
	fmt.Fprintf(w, "showing top-%d candidate queries; pick the one matching your intent,\n", len(out))
	fmt.Fprintf(w, "or None if no candidate is a correct translation.\n")
	for _, ce := range out {
		fmt.Fprintf(w, "\n--- candidate %d (score %.2f) ---\n", ce.Rank, ce.Candidate.Score)
		fmt.Fprintf(w, "query:     %s\n", ce.Candidate.Query)
		fmt.Fprintf(w, "utterance: %s\n", ce.Explanation.Utterance)
		fmt.Fprintf(w, "result:    %s\n", ce.Explanation.Result)
		if ansi {
			fmt.Fprint(w, ce.Explanation.ANSI())
		} else {
			fmt.Fprint(w, ce.Explanation.Text())
		}
	}
	if !ansi {
		fmt.Fprintln(w, "\n"+nlexplain.HighlightLegend())
	}
	return nil
}
