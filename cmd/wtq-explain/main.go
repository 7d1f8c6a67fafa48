// Command wtq-explain explains a lambda DCS query over a CSV table:
// it prints the query's NL utterance, SQL translation, result and the
// provenance-highlighted table (Section 5 of the paper).
//
// Usage:
//
//	wtq-explain -table data.csv -query 'max(R[Year].Country.Greece)' [-format text|ansi|html]
//
// With no -table, the paper's Figure 1 Olympics table is used.
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
	querySrc := flag.String("query", "max(R[Year].Country.Greece)", "lambda DCS query")
	format := flag.String("format", "ansi", "output format: text, ansi or html")
	flag.Parse()

	if err := run(os.Stdout, *tablePath, *querySrc, *format); err != nil {
		fmt.Fprintln(os.Stderr, "wtq-explain:", err)
		os.Exit(1)
	}
}

// run explains querySrc over the table at tablePath (the built-in
// Olympics table when empty) and writes the explanation to w.
func run(w io.Writer, tablePath, querySrc, format string) error {
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

	q, err := nlexplain.ParseQuery(querySrc)
	if err != nil {
		return err
	}
	ex, err := nlexplain.Explain(q, t)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "query:     %s\n", q)
	fmt.Fprintf(w, "utterance: %s\n", ex.Utterance)
	if ex.SQL != "" {
		fmt.Fprintf(w, "sql:       %s\n", ex.SQL)
	}
	fmt.Fprintf(w, "result:    %s\n\n", ex.Result)
	switch format {
	case "text":
		fmt.Fprint(w, ex.Text())
		fmt.Fprintln(w, "\n"+nlexplain.HighlightLegend())
	case "ansi":
		fmt.Fprint(w, ex.ANSI())
	case "html":
		fmt.Fprintf(w, "<style>\n%s\n</style>\n%s\n", nlexplain.HighlightCSS(), ex.HTML())
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}
