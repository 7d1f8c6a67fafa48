package workload

// Report is the outcome tally of one workload run: what the tests
// assert on. It times nothing — benchmark/ is where speed is measured.
type Report struct {
	TotalOps int
	// Counts maps outcome class (ok, client_error, timeout, overloaded,
	// internal, transport) to op count.
	Counts map[string]int
	// Cached counts ops whose response carried cached=true: the run's
	// cache share is Cached / TotalOps.
	Cached int
}

// record books one executed op.
func (r *Report) record(out Outcome) {
	r.TotalOps++
	r.Counts[out.Class]++
	if out.Cached {
		r.Cached++
	}
}
