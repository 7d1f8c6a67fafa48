package utterance

import (
	"fmt"
	"strings"

	"nlexplain/internal/dcs"
)

// Node is one node of a derivation tree (Figure 3). The same tree
// carries both views: the formal sub-query (Figure 3a) and the derived
// NL utterance (Figure 3b); derivations compose bottom-up exactly like
// the parser's CFG derivations.
type Node struct {
	// Category is the grammar non-terminal: Entity, Binary, Values or
	// Records (Table 3's rule heads).
	Category string
	// Formal is the sub-query in lambda DCS surface syntax.
	Formal string
	// Utterance is the NL phrase derived for the sub-query. At the root
	// it is the whole query's: "the full query utterance can be read as
	// the yield of the parse tree" (Section 5.1).
	Utterance string
	// Children are the sub-derivations, left to right.
	Children []*Node
}

// Derive builds the derivation tree of an expression.
func Derive(e dcs.Expr) *Node {
	n := &Node{
		Category:  category(e),
		Formal:    e.String(),
		Utterance: utter(e),
	}
	// Column references become Binary leaf children, mirroring the
	// (Binary) leaves of Figure 3.
	for _, col := range ownColumns(e) {
		n.Children = append(n.Children, &Node{
			Category:  "Binary",
			Formal:    col,
			Utterance: col,
		})
	}
	for _, c := range e.Children() {
		n.Children = append(n.Children, Derive(c))
	}
	return n
}

// category maps an expression to its grammar non-terminal.
func category(e dcs.Expr) string {
	switch x := e.(type) {
	case *dcs.ValueLit:
		return "Entity"
	case *dcs.Aggregate:
		if x.Fn == dcs.Count {
			return "Entity" // "the number of" Records -> Entity (Table 3)
		}
		return "Entity" // "maximum of" Values -> Entity
	case *dcs.Sub:
		return "Values"
	default:
		switch e.Type() {
		case dcs.RecordsType:
			return "Records"
		default:
			return "Values"
		}
	}
}

// ownColumns returns the columns referenced directly by this node (not
// by descendants).
func ownColumns(e dcs.Expr) []string {
	switch x := e.(type) {
	case *dcs.Join:
		return []string{x.Column}
	case *dcs.ColumnValues:
		return []string{x.Column}
	case *dcs.ArgRecords:
		return []string{x.Column}
	case *dcs.IndexSuperlative:
		return []string{x.Column}
	case *dcs.MostFrequent:
		return []string{x.Column}
	case *dcs.CompareValues:
		return []string{x.KeyCol, x.ValCol}
	case *dcs.Compare:
		return []string{x.Column}
	}
	return nil
}

// String renders the tree with indentation, each line showing
// (Category) formal ⇒ utterance, so both Figure 3 views can be read
// side by side.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b, 0)
	return b.String()
}

func (n *Node) write(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%s(%s) %s ⇒ %q\n",
		strings.Repeat("  ", depth), n.Category, n.Formal, n.Utterance)
	for _, c := range n.Children {
		c.write(b, depth+1)
	}
}

// Size counts the nodes of the derivation tree.
func (n *Node) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}
