package semparse

// Metrics aggregates the paper's evaluation measures over an example
// set (Section 7.1): correctness (top-1 query matches the gold query),
// answer accuracy (top-1 executes to the gold answer), MRR over the
// candidate ranking, and the top-k correctness bound.
type Metrics struct {
	Examples int
	// Correct counts examples whose top-ranked query is the gold query.
	Correct int
	// AnswerCorrect counts examples whose top-ranked query returns the
	// gold answer (the weaker notion the paper warns about in Fig. 8).
	AnswerCorrect int
	// SumRR accumulates reciprocal ranks of the first correct query.
	SumRR float64
	// BoundK counts examples with a correct query anywhere in the top-k.
	BoundK int
	K      int
}

// Correctness is the fraction of examples with a correct top query.
func (m *Metrics) Correctness() float64 {
	if m.Examples == 0 {
		return 0
	}
	return float64(m.Correct) / float64(m.Examples)
}

// MRR is the mean reciprocal rank of the first correct query.
func (m *Metrics) MRR() float64 {
	if m.Examples == 0 {
		return 0
	}
	return m.SumRR / float64(m.Examples)
}

// Bound is the top-k correctness bound: the best any candidate-choosing
// user could achieve (Section 7.2).
func (m *Metrics) Bound() float64 {
	if m.Examples == 0 {
		return 0
	}
	return float64(m.BoundK) / float64(m.Examples)
}

// Evaluate runs the parser over the examples and aggregates metrics.
// A candidate is a correct query when it matches the example's gold
// query (or any user annotation), canonically compared.
func (p *Parser) Evaluate(examples []*Example, k int) *Metrics {
	m := &Metrics{K: k}
	for _, ex := range examples {
		cands := p.ParseAll(ex.Question, ex.Table)
		m.Examples++
		if len(cands) == 0 {
			continue
		}
		if isGold(ex, cands[0]) {
			m.Correct++
		}
		if cands[0].Result != nil && cands[0].Result.AnswerKey() == ex.Answer {
			m.AnswerCorrect++
		}
		for rank, c := range cands {
			if isGold(ex, c) {
				m.SumRR += 1.0 / float64(rank+1)
				if rank < k {
					m.BoundK++
				}
				break
			}
		}
	}
	return m
}

// isGold reports whether a candidate is a correct translation of the
// example's question.
func isGold(ex *Example, c *Candidate) bool {
	if c.Key() == ex.GoldQuery {
		return true
	}
	return ex.Annotations[c.Key()]
}
