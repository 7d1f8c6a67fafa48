package semparse

import (
	"math"
	"math/rand"

	"nlexplain/internal/table"
)

// Example is one training/evaluation instance: a question on a table
// with the gold answer (weak supervision) and, when annotated by users
// through query explanations, the set Qx of correct queries (strong
// supervision, Section 6.2).
type Example struct {
	ID       int
	Question string
	Table    *table.Table
	// Answer is the canonical AnswerKey of the gold denotation y.
	Answer string
	// GoldQuery is the canonical string of the query that generated the
	// example (known for the synthetic dataset; used for evaluation).
	GoldQuery string
	// Annotations is Qx: canonical query strings marked correct by
	// users. Empty for unannotated examples.
	Annotations map[string]bool
}

// Annotated reports whether the example carries user annotations
// (x ∈ A in Eq. 8).
func (e *Example) Annotated() bool { return len(e.Annotations) > 0 }

// TrainOptions configures AdaGrad training (Eq. 6 / Eq. 8).
type TrainOptions struct {
	Epochs int
	// LearningRate is the AdaGrad step size.
	LearningRate float64
	// L1 is λ, the ℓ1 regularization strength of Eq. 6.
	L1 float64
	// Seed shuffles example order per epoch.
	Seed int64
}

// DefaultTrainOptions mirror the paper's setup (AdaGrad + ℓ1, λ from
// cross-validation).
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Epochs: 5, LearningRate: 0.2, L1: 1e-4, Seed: 1}
}

// Train maximizes the objective of Eq. 8 — which degenerates to Eq. 6
// when no example is annotated: for annotated examples the correctness
// indicator is r*(z|x,T) = [z ∈ Qx] (query match), for the rest it is
// r(z|T,y) = [z(T) = y] (answer match).
func (p *Parser) Train(examples []*Example, opt TrainOptions) {
	rng := rand.New(rand.NewSource(opt.Seed))
	if p.sumSq == nil {
		p.sumSq = make(map[string]float64)
	}
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			p.step(examples[idx], opt)
		}
	}
}

// step performs one stochastic AdaGrad update on one example.
func (p *Parser) step(ex *Example, opt TrainOptions) {
	cands := p.ParseAll(ex.Question, ex.Table)
	if len(cands) == 0 {
		return
	}
	correct := correctSet(ex, cands)
	if len(correct) == 0 {
		return // no reachable correct candidate: no gradient signal
	}
	probs := Distribution(cands)

	// Gradient of log Σ_{z correct} p(z): E_{p(z|correct)}[φ] − E_p[φ].
	zc := 0.0
	for i := range cands {
		if correct[i] {
			zc += probs[i]
		}
	}
	if zc == 0 {
		return
	}
	grad := make([]float64, len(featureNames))
	for i, c := range cands {
		w := -probs[i]
		if correct[i] {
			w += probs[i] / zc
		}
		if w == 0 {
			continue
		}
		for _, f := range c.Features {
			grad[f.ID] += w * f.Value
		}
	}

	// AdaGrad with an ℓ1 proximal (soft-threshold) step.
	for id, g := range grad {
		if g == 0 {
			continue
		}
		k := featureNames[id]
		p.sumSq[k] += g * g
		lr := opt.LearningRate / math.Sqrt(p.sumSq[k]+1e-8)
		w := p.Weights[k] + lr*g
		// soft threshold toward zero
		shrink := lr * opt.L1
		switch {
		case w > shrink:
			w -= shrink
		case w < -shrink:
			w += shrink
		default:
			w = 0
		}
		if w == 0 {
			delete(p.Weights, k)
		} else {
			p.Weights[k] = w
		}
	}
}

// correctSet marks which candidates count as correct for the example:
// query membership in Qx when annotated (r* of Eq. 7), answer equality
// otherwise (r of Eq. 5).
func correctSet(ex *Example, cands []*Candidate) map[int]bool {
	out := make(map[int]bool)
	for i, c := range cands {
		if ex.Annotated() {
			if ex.Annotations[c.Key()] {
				out[i] = true
			}
			continue
		}
		if c.Result != nil && c.Result.AnswerKey() == ex.Answer {
			out[i] = true
		}
	}
	return out
}
