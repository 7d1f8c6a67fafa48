package semparse

import (
	"iter"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// Feature is one entry of a feature vector: the id of a named feature
// and its value.
type Feature struct {
	ID    uint16
	Value float64
}

// Features is the feature vector φ(x, T, z) of one candidate, sparse:
// the features present, in id order. Ids number the feature names in
// name order, so id order is name order too — the order scores are
// summed in.
type Features []Feature

// Get returns the value of the named feature, 0 when it is absent.
func (f Features) Get(name string) float64 {
	id, ok := featureIDs[name]
	if !ok {
		return 0
	}
	if i, ok := slices.BinarySearchFunc(f, id, func(e Feature, id int) int { return int(e.ID) - id }); ok {
		return f[i].Value
	}
	return 0
}

// All iterates the features present, in name order.
func (f Features) All() iter.Seq2[string, float64] {
	return func(yield func(string, float64) bool) {
		for _, e := range f {
			if !yield(featureNames[e.ID], e.Value) {
				return
			}
		}
	}
}

// op is an operator class a query can contain — the ones some feature
// asks about — and opSet a set of them.
type op uint8

const (
	opCount op = iota
	opSum
	opAvg
	opMax
	opMin
	opSub
	opArgmax
	opArgmin
	opFirst
	opLast
	opMostFreq
	opPrev
	opNext
	opCmpMore
	opCmpLess
)

type opSet uint16

func (s opSet) has(o op) bool { return s&(1<<o) != 0 }

func ops(os ...op) opSet {
	var s opSet
	for _, o := range os {
		s |= 1 << o
	}
	return s
}

// The operator sets the superlative features test for.
var (
	superlativeOps = ops(opArgmax, opArgmin, opMax, opMin, opLast, opFirst)
	lastOps        = ops(opLast, opMax)
	firstOps       = ops(opFirst, opMin)
)

// aggrOps is the operator class of each aggregate function.
var aggrOps = map[dcs.AggrFn]op{dcs.Count: opCount, dcs.Sum: opSum, dcs.Avg: opAvg, dcs.Max: opMax, dcs.Min: opMin}

// triggerOps pairs each lexical trigger with the operator it announces.
// Both directions are features: a count question without a count query
// (miss) and a count query without a count question (spur) are both
// suspicious.
var triggerOps = []struct {
	trig Trigger
	op   op
	name string
}{
	{TrigCount, opCount, "count"},
	{TrigSum, opSum, "sum"},
	{TrigAvg, opAvg, "avg"},
	{TrigDiff, opSub, "sub"},
	{TrigMost, opMostFreq, "mostfreq"},
	{TrigBefore, opPrev, "prev"},
	{TrigAfter, opNext, "next"},
	{TrigMore, opCmpMore, "cmp>"},
	{TrigLess, opCmpLess, "cmp<"},
}

// The feature names are a closed set: the fixed ones in featureNames, a
// root operator, agree/miss/spur per trigger pair, and the wh-word ×
// answer kind grid.
var (
	rootNames = []string{"count", "sum", "avg", "max", "min", "sub", "project", "indexsup", "mostfreq",
		"comparevalues", "join", "intersect", "union", "compare", "prev", "next", "argrecords", "allrecords", "literal"}
	whWords     = []string{"", "who", "when", "where", "which", "what", "how-many", "how"}
	answerKinds = []string{"records", "scalar", "text", "numeric"}
)

const (
	kindRecords = iota
	kindScalar
	kindText
	kindNumeric
)

// featureNames is every feature name, sorted; a feature's id is its
// index. Built once at start-up and read-only after.
var featureNames = func() []string {
	names := []string{"bias", "colCoverage", "colsUnmentioned", "entityCoverage", "entitiesUngrounded", "numEntities",
		"size", "emptyResult", "recordsResult", "agree:argmax", "agree:argmin", "flip:superlative", "miss:superlative",
		"spur:superlative", "agree:last", "agree:first"}
	for _, r := range rootNames {
		names = append(names, "root="+r)
	}
	for _, to := range triggerOps {
		names = append(names, "agree:"+to.name, "miss:"+to.name, "spur:"+to.name)
	}
	for _, wh := range whWords {
		for _, kind := range answerKinds {
			names = append(names, "wh="+wh+"&kind="+kind)
		}
	}
	sort.Strings(names)
	return names
}()

var featureIDs = func() map[string]int {
	ids := make(map[string]int, len(featureNames))
	for id, name := range featureNames {
		if _, dup := ids[name]; dup {
			panic("semparse: feature " + name + " listed twice")
		}
		ids[name] = id
	}
	return ids
}()

func featureID(name string) int {
	id, ok := featureIDs[name]
	if !ok {
		panic("semparse: no feature " + name)
	}
	return id
}

var (
	fBias               = featureID("bias")
	fColCoverage        = featureID("colCoverage")
	fColsUnmentioned    = featureID("colsUnmentioned")
	fEntityCoverage     = featureID("entityCoverage")
	fEntitiesUngrounded = featureID("entitiesUngrounded")
	fNumEntities        = featureID("numEntities")
	fSize               = featureID("size")
	fEmptyResult        = featureID("emptyResult")
	fRecordsResult      = featureID("recordsResult")
	fAgreeArgmax        = featureID("agree:argmax")
	fAgreeArgmin        = featureID("agree:argmin")
	fFlipSuperlative    = featureID("flip:superlative")
	fMissSuperlative    = featureID("miss:superlative")
	fSpurSuperlative    = featureID("spur:superlative")
	fAgreeLast          = featureID("agree:last")
	fAgreeFirst         = featureID("agree:first")

	// fRoot is the feature of each root operator, by its name.
	fRoot = func() map[string]int {
		out := make(map[string]int, len(rootNames))
		for _, r := range rootNames {
			out[r] = featureID("root=" + r)
		}
		return out
	}()
	// fTrigger is, per triggerOps row, the operator and its agree, miss
	// and spur features.
	fTrigger = func() []triggerFeatures {
		out := make([]triggerFeatures, len(triggerOps))
		for i, to := range triggerOps {
			out[i] = triggerFeatures{to.op, featureID("agree:" + to.name), featureID("miss:" + to.name), featureID("spur:" + to.name)}
		}
		return out
	}()
	// fWhKind is the wh-word × answer-kind grid, one row per whWords.
	fWhKind = func() [][4]int {
		out := make([][4]int, len(whWords))
		for i, wh := range whWords {
			for kind, name := range answerKinds {
				out[i][kind] = featureID("wh=" + wh + "&kind=" + name)
			}
		}
		return out
	}()
)

type triggerFeatures struct {
	op                op
	agree, miss, spur int
}

// node is what the features ask of one AST node, computed once from its
// children's: canonical text, operator classes anywhere in it, distinct
// columns and how many of them the question mentions, entity literals
// and how many of them the question grounds, and node count.
type node struct {
	text      string
	root      int // feature of the node as outermost operator, -1 for none
	ops       opSet
	cols      []int // column classes, distinct
	mentioned int
	lits      int
	grounded  int
	size      int
}

// featurizer is the state of one question: the facts every candidate's
// features share, computed once, and the nodes already described — the
// pool is a few records sub-expressions under many heads, so most of a
// candidate is a node another candidate already paid for.
type featurizer struct {
	q *Question

	trig           opSet // operators whose trigger the question holds
	maxish, minish bool
	last, first    bool
	wh             *[4]int // the question's row of fWhKind, nil for a wh-word outside it

	// classes numbers the headers met so far, under both their written
	// and their lower-case form: headers equal up to case are one
	// column. mentioned says per number whether the question holds
	// every token of the header.
	classes   map[string]int
	mentioned []bool
	lits      []groundedLit
	nodes     map[dcs.Expr]*node

	// vals and present are the dense vector a candidate's features are
	// set in before take reads them off in id order.
	vals    []float64
	present []uint64

	nodeSlab []node
	featSlab []Feature
}

type groundedLit struct {
	v        table.Value
	grounded bool
}

// newFeaturizer readies the state of question q for about nodes nodes.
func newFeaturizer(q *Question, nodes int) *featurizer {
	f := &featurizer{
		q:       q,
		maxish:  q.Trigs[TrigMax] || q.Trigs[TrigLast],
		minish:  q.Trigs[TrigMin] || q.Trigs[TrigFirst],
		last:    q.Trigs[TrigLast],
		first:   q.Trigs[TrigFirst],
		classes: make(map[string]int),
		nodes:   make(map[dcs.Expr]*node, nodes),
		vals:    make([]float64, len(featureNames)),
		present: make([]uint64, (len(featureNames)+63)/64),
	}
	for _, to := range triggerOps {
		if q.Trigs[to.trig] {
			f.trig |= 1 << to.op
		}
	}
	for i, wh := range whWords {
		if wh == q.Wh {
			f.wh = &fWhKind[i]
		}
	}
	return f
}

// carve returns n fresh elements off the slab, starting a new chunk of
// at least chunk elements when the current one is spent. Elements handed
// out earlier stay where they are.
func carve[T any](slab *[]T, n, chunk int) []T {
	if len(*slab)+n > cap(*slab) {
		*slab = make([]T, 0, max(n, chunk))
	}
	lo := len(*slab)
	*slab = (*slab)[:lo+n]
	return (*slab)[lo : lo+n : lo+n]
}

func (f *featurizer) set(id int, v float64) {
	f.vals[id] = v
	f.present[id>>6] |= 1 << (id & 63)
}

// take returns the features set since the last take, in id order.
func (f *featurizer) take() Features {
	n := 0
	for _, w := range f.present {
		n += bits.OnesCount64(w)
	}
	out := carve(&f.featSlab, n, 512)[:0]
	for i, w := range f.present {
		for ; w != 0; w &= w - 1 {
			id := i<<6 + bits.TrailingZeros64(w)
			out = append(out, Feature{ID: uint16(id), Value: f.vals[id]})
		}
		f.present[i] = 0
	}
	return out
}

func (f *featurizer) features(n *node, res *dcs.Result) Features {
	f.set(fBias, 1)
	if n.root >= 0 {
		f.set(n.root, 1)
	}

	// Trigger ↔ operator agreement.
	for _, tf := range fTrigger {
		switch trig, has := f.trig.has(tf.op), n.ops.has(tf.op); {
		case trig && has:
			f.set(tf.agree, 1)
		case trig:
			f.set(tf.miss, 1)
		case has:
			f.set(tf.spur, 1)
		}
	}

	// Superlative direction agreement.
	argmax, argmin := n.ops.has(opArgmax), n.ops.has(opArgmin)
	switch {
	case f.maxish && argmax:
		f.set(fAgreeArgmax, 1)
	case f.minish && argmin:
		f.set(fAgreeArgmin, 1)
	case f.maxish && argmin, f.minish && argmax:
		f.set(fFlipSuperlative, 1)
	case (f.maxish || f.minish) && n.ops&superlativeOps == 0:
		f.set(fMissSuperlative, 1)
	case !(f.maxish || f.minish) && (argmax || argmin):
		f.set(fSpurSuperlative, 1)
	}
	if f.last && n.ops&lastOps != 0 {
		f.set(fAgreeLast, 1)
	}
	if f.first && n.ops&firstOps != 0 {
		f.set(fAgreeFirst, 1)
	}

	// Column mention coverage: fraction of the query's columns whose
	// header tokens occur in the question, and the count of unmentioned
	// columns (penalizes picking arbitrary columns).
	if len(n.cols) > 0 {
		f.set(fColCoverage, float64(n.mentioned)/float64(len(n.cols)))
		f.set(fColsUnmentioned, float64(len(n.cols)-n.mentioned))
	}

	// Entity grounding: every entity literal in the query should come
	// from the question.
	if n.lits > 0 {
		f.set(fEntityCoverage, float64(n.grounded)/float64(n.lits))
		f.set(fEntitiesUngrounded, float64(n.lits-n.grounded))
	}
	f.set(fNumEntities, float64(n.lits))

	// Size, emptiness, and wh-word / answer-type agreement.
	f.set(fSize, float64(n.size))
	if res != nil {
		if res.Empty() {
			f.set(fEmptyResult, 1)
		}
		if res.Type == dcs.RecordsType {
			f.set(fRecordsResult, 1) // final answers are values/scalars
		}
		if f.wh != nil {
			f.set(f.wh[answerKind(res)], 1)
		}
	}
	return f.take()
}

func answerKind(res *dcs.Result) int {
	switch {
	case res.Type == dcs.ScalarType:
		return kindScalar
	case res.Type != dcs.ValuesType:
		return kindRecords
	case len(res.Values) > 0 && res.Values[0].Kind != table.String:
		return kindNumeric
	}
	return kindText
}

// describe returns the node facts of e, from the memo or from its
// children's.
func (f *featurizer) describe(e dcs.Expr) *node {
	if n, ok := f.nodes[e]; ok {
		return n
	}
	n := &carve(&f.nodeSlab, 1, 64)[0]
	n.size = 1
	root := ""
	var texts [2]string
	children := texts[:0]
	child := func(c dcs.Expr) {
		cn := f.describe(c)
		n.ops |= cn.ops
		n.lits += cn.lits
		n.grounded += cn.grounded
		n.size += cn.size
		if n.cols == nil {
			n.cols = cn.cols
		} else {
			for _, class := range cn.cols {
				n.addColumn(class)
			}
		}
		children = append(children, cn.text)
	}
	column := func(header string) { n.addColumn(f.class(header)) }
	literal := func(v table.Value) {
		n.lits++
		if f.isGrounded(v) {
			n.grounded++
		}
	}
	extreme := func(max bool) op {
		if max {
			return opArgmax
		}
		return opArgmin
	}

	switch x := e.(type) {
	case *dcs.ValueLit:
		root = "literal"
		literal(x.V)
	case *dcs.AllRecords:
		root = "allrecords"
	case *dcs.Join:
		root = "join"
		child(x.Arg)
		column(x.Column)
	case *dcs.ColumnValues:
		root = "project"
		child(x.Records)
		column(x.Column)
	case *dcs.Prev:
		root = "prev"
		n.ops |= 1 << opPrev
		child(x.Records)
	case *dcs.Next:
		root = "next"
		n.ops |= 1 << opNext
		child(x.Records)
	case *dcs.Intersect:
		root = "intersect"
		child(x.L)
		child(x.R)
	case *dcs.Union:
		root = "union"
		child(x.L)
		child(x.R)
	case *dcs.Aggregate:
		root = string(x.Fn)
		if o, ok := aggrOps[x.Fn]; ok {
			n.ops |= 1 << o
		}
		child(x.Arg)
	case *dcs.Sub:
		root = "sub"
		n.ops |= 1 << opSub
		child(x.L)
		child(x.R)
	case *dcs.ArgRecords:
		root = "argrecords"
		n.ops |= 1 << extreme(x.Max)
		child(x.Records)
		column(x.Column)
	case *dcs.IndexSuperlative:
		root = "indexsup"
		if x.First {
			n.ops |= 1 << opFirst
		} else {
			n.ops |= 1 << opLast
		}
		child(x.Records)
		column(x.Column)
	case *dcs.MostFrequent:
		root = "mostfreq"
		n.ops |= 1 << opMostFreq
		if x.Vals != nil {
			child(x.Vals)
		}
		column(x.Column)
	case *dcs.CompareValues:
		root = "comparevalues"
		n.ops |= 1 << extreme(x.Max)
		child(x.Vals)
		column(x.KeyCol)
		column(x.ValCol)
	case *dcs.Compare:
		root = "compare"
		switch x.Op {
		case dcs.Gt, dcs.Ge:
			n.ops |= 1 << opCmpMore
		case dcs.Lt, dcs.Le:
			n.ops |= 1 << opCmpLess
		}
		column(x.Column)
		literal(x.V)
	default:
		for _, c := range e.Children() {
			child(c)
		}
	}

	if id, ok := fRoot[root]; ok {
		n.root = id
	} else {
		n.root = -1
	}
	for _, class := range n.cols {
		if f.mentioned[class] {
			n.mentioned++
		}
	}
	n.text = dcs.Render(e, children...)
	f.nodes[e] = n
	return n
}

// addColumn adds a column class to the node's set. The set may be a
// child's, shared: growing it copies.
func (n *node) addColumn(class int) {
	for _, have := range n.cols {
		if have == class {
			return
		}
	}
	n.cols = append(n.cols[:len(n.cols):len(n.cols)], class)
}

// class numbers a header, tokenizing it against the question the first
// time it is met.
func (f *featurizer) class(header string) int {
	if class, ok := f.classes[header]; ok {
		return class
	}
	lower := strings.ToLower(header)
	class, ok := f.classes[lower]
	if !ok {
		class = len(f.mentioned)
		f.classes[lower] = class
		f.mentioned = append(f.mentioned, columnMentioned(f.q, header))
	}
	f.classes[header] = class
	return class
}

// isGrounded reports whether the literal's text occurs in the question,
// tokenizing each distinct literal once.
func (f *featurizer) isGrounded(v table.Value) bool {
	for i := range f.lits {
		if f.lits[i].v == v {
			return f.lits[i].grounded
		}
	}
	g := phraseInQuestion(f.q, v)
	f.lits = append(f.lits, groundedLit{v, g})
	return g
}

func columnMentioned(q *Question, col string) bool {
	for _, h := range Tokenize(col) {
		if !containsToken(q.Tokens, h) {
			return false
		}
	}
	return true
}

func phraseInQuestion(q *Question, v table.Value) bool {
	vt := Tokenize(v.String())
	if len(vt) == 0 {
		return false
	}
	return containsPhrase(q.Tokens, vt)
}
