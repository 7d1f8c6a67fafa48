package workload

// Report is the outcome tally of one workload run: what the tests
// assert on. It times nothing — benchmark/ is where speed is measured.
type Report struct {
	TotalOps int
	// Counts maps outcome class (ok, client_error, timeout, overloaded,
	// internal, transport) to op count; convenience totals below.
	Counts   map[string]int
	Errors   int
	Sheds    int
	Timeouts int
	// Cached counts ops whose response carried cached=true: the run's
	// cache share is Cached / TotalOps.
	Cached int
	// PerKind is Counts split by op kind.
	PerKind map[string]map[string]int
}

// record books one executed op.
func (r *Report) record(kind OpKind, out Outcome) {
	r.TotalOps++
	r.Counts[out.Class]++
	switch out.Class {
	case ClassClientError, ClassInternal, ClassTransport:
		r.Errors++
	case ClassOverloaded:
		r.Sheds++
	case ClassTimeout:
		r.Timeouts++
	}
	if out.Cached {
		r.Cached++
	}
	byClass := r.PerKind[string(kind)]
	if byClass == nil {
		byClass = make(map[string]int)
		r.PerKind[string(kind)] = byClass
	}
	byClass[out.Class]++
}
