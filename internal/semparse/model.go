package semparse

import (
	"math"
	"sync"

	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// Parser is the log-linear semantic parser of Eq. 4:
// pθ(z|x,T) ∝ exp(φ(x,T,z)·θ).
//
// Parse and ParseAll are safe for concurrent use (the candidate cache
// is synchronized and scored candidates are per-call copies), provided
// no goroutine concurrently mutates the parser: Train updates Weights,
// and ShareCandidateCache swaps the cache pointer — both are
// setup/training-time operations that must not overlap parsing.
type Parser struct {
	// Weights is the parameter vector θ, sparse over feature names.
	Weights map[string]float64
	// TopK is how many ranked candidates Parse returns (the paper
	// displays k=7 to users; Parse itself returns up to TopK).
	TopK int
	// Exec is the executor candidate generation runs each candidate in;
	// nil is the package default.
	Exec *plan.Exec
	// adagrad accumulator (sum of squared gradients per feature).
	sumSq map[string]float64
	// candCache memoizes candidate generation per (table, question):
	// candidates and their features do not depend on θ, only scores do,
	// so epochs of training and repeated simulation reuse them.
	candCache *candCache
}

// candCache is a synchronized candidate-pool memo, shareable between
// parser variants (candidates are θ-independent).
type candCache struct {
	mu sync.Mutex
	m  map[poolKey][]*Candidate
}

// poolKey names a memoized pool. Tables are immutable, so the table's
// identity stands for its content; its name does not — an Append keeps
// the name.
type poolKey struct {
	table    *table.Table
	question string
}

func (c *candCache) get(key poolKey) ([]*Candidate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cands, ok := c.m[key]
	return cands, ok
}

// putIfAbsent stores cands under key unless another goroutine won the
// generation race, and returns the pool that ends up cached.
func (c *candCache) putIfAbsent(key poolKey, cands []*Candidate) []*Candidate {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[key]; ok {
		return prev
	}
	if c.m == nil {
		c.m = make(map[poolKey][]*Candidate)
	}
	c.m[key] = cands
	return cands
}

// ShareCandidateCache makes p reuse another parser's memoized candidate
// pools. Candidates are θ-independent, so sharing is safe; it saves the
// regeneration cost when many parser variants are trained on the same
// examples (the Table 9 experiment). Setup-time only — it installs a
// cache on an uncached donor and swaps p's cache pointer without
// synchronization, so call it before any concurrent parsing starts.
func (p *Parser) ShareCandidateCache(o *Parser) {
	if o.candCache == nil {
		o.candCache = &candCache{m: make(map[poolKey][]*Candidate)}
	}
	p.candCache = o.candCache
}

// candidates returns the unscored candidate pool as candidates the
// caller owns: freshly generated ones, or copies of the memoized pool,
// which scoring must never write to. Generation runs outside the cache
// lock; when two goroutines race on the same key, one pool wins and
// both use it. A parser built by hand rather than NewParser has no
// cache: it regenerates every call (lazily installing one here would be
// an unsynchronized write, breaking the type's concurrency guarantee).
func (p *Parser) candidates(question string, t *table.Table) []*Candidate {
	if p.candCache == nil {
		return GenerateCandidates(Analyze(question, t), t, p.Exec)
	}
	key := poolKey{t, question}
	pool, ok := p.candCache.get(key)
	if !ok {
		pool = p.candCache.putIfAbsent(key, GenerateCandidates(Analyze(question, t), t, p.Exec))
	}
	copies := make([]Candidate, len(pool))
	cands := make([]*Candidate, len(pool))
	for i, c := range pool {
		copies[i] = *c
		cands[i] = &copies[i]
	}
	return cands
}

// NewParser returns a parser with heuristic initial weights: enough
// signal to rank plausibly before any training, mirroring a pretrained
// baseline.
func NewParser() *Parser {
	return &Parser{
		Weights: map[string]float64{
			"colCoverage":        1.0,
			"entityCoverage":     1.5,
			"entitiesUngrounded": -1.0,
			"colsUnmentioned":    -0.3,
			"emptyResult":        -2.0,
			"recordsResult":      -1.0,
			"size":               -0.05,
		},
		TopK:      7,
		sumSq:     make(map[string]float64),
		candCache: &candCache{m: make(map[poolKey][]*Candidate)},
	}
}

// NewUncachedParser is NewParser without candidate memoization: every
// Parse regenerates the pool. Callers that manage their own bounded
// caching (the explanation engine) use it so parser memory cannot grow
// with the number of distinct questions served.
func NewUncachedParser() *Parser {
	p := NewParser()
	p.candCache = nil
	return p
}

// Clone deep-copies the parser's parameters (weights and AdaGrad
// accumulator). The candidate cache is shared deliberately: candidates
// do not depend on θ, and sharing lets experiment variants reuse
// generation work.
func (p *Parser) Clone() *Parser {
	q := &Parser{Weights: make(map[string]float64, len(p.Weights)), TopK: p.TopK, Exec: p.Exec, sumSq: make(map[string]float64, len(p.sumSq)), candCache: p.candCache}
	for k, v := range p.Weights {
		q.Weights[k] = v
	}
	for k, v := range p.sumSq {
		q.sumSq[k] = v
	}
	return q
}

// denseWeights lays Weights out by feature id. A weight under a name
// no feature has never met a feature, and is left out.
func (p *Parser) denseWeights() []float64 {
	w := make([]float64, len(featureNames))
	for name, v := range p.Weights {
		if id, ok := featureIDs[name]; ok {
			w[id] = v
		}
	}
	return w
}

// score computes θ·φ over the weighted features. Terms are added in
// feature-name order — the vector's own: float addition is not
// associative, and any other order would rank near-tied candidates
// differently.
func score(weights []float64, features Features) float64 {
	s := 0.0
	for _, f := range features {
		if w := weights[f.ID]; w != 0 {
			s += w * f.Value
		}
	}
	return s
}

// Parse analyzes the question, generates candidates, ranks them by the
// model and returns the top-K (Eq. 4 ranking).
func (p *Parser) Parse(question string, t *table.Table) []*Candidate {
	cands := p.ParseAll(question, t)
	if p.TopK > 0 && len(cands) > p.TopK {
		cands = cands[:p.TopK]
	}
	return cands
}

// ParseAll is Parse without the top-K truncation, for training (the
// distributions of Eq. 5/7 range over the full candidate set Zx).
// The returned candidates are the caller's: scoring never mutates the
// shared memoized pool, so concurrent ParseAll calls do not race.
func (p *Parser) ParseAll(question string, t *table.Table) []*Candidate {
	cands := p.candidates(question, t)
	weights := p.denseWeights()
	for _, c := range cands {
		c.Score = score(weights, c.Features)
	}
	sortCandidates(cands)
	return cands
}

// Distribution returns pθ(z|x,T) over the candidates via softmax of the
// current scores.
func Distribution(cands []*Candidate) []float64 {
	if len(cands) == 0 {
		return nil
	}
	maxScore := cands[0].Score
	for _, c := range cands {
		if c.Score > maxScore {
			maxScore = c.Score
		}
	}
	probs := make([]float64, len(cands))
	z := 0.0
	for i, c := range cands {
		probs[i] = math.Exp(c.Score - maxScore)
		z += probs[i]
	}
	for i := range probs {
		probs[i] /= z
	}
	return probs
}
