package plan

import (
	"sort"
	"testing"

	"nlexplain/internal/table"
)

// counterDelta is what one execution added to its Exec's counters.
type counterDelta struct {
	parallelRuns, serialRuns, morsels, skipped, shortcut uint64
}

func countersOf(x *Exec) counterDelta {
	return counterDelta{x.ParallelRuns.Load(), x.SerialRuns.Load(), x.Morsels.Load(), x.Skipped.Load(), x.Shortcut.Load()}
}

// TestExecCountersPinned pins which strategy every scan operator takes,
// as seen through the counters the engine exports and the benchmark
// asserts floors on: per plan and executor configuration, the number of
// parallel / serial runs, morsels handed out, and morsels skipped or
// bulk-filled from zone verdicts. Each configuration starts from a
// fresh table and runs its plans in name order. The path a range or a
// superlative takes depends on its column alone, not on which indexes
// earlier plans built: a clean column reads its sorted index, one run
// and no morsel, and only a column that spells a NaN scans under zone
// verdicts. A refactor of the executor must leave every number here
// unchanged.
func TestExecCountersPinned(t *testing.T) {
	type config struct {
		name  string
		exec  func() *Exec
		table func(testing.TB) *table.Table
		plans map[string]Node
		want  map[string]counterDelta
	}
	big := func(tb testing.TB) *table.Table { return bigTestTable(tb, 70_000) }
	clustered := func(tb testing.TB) *table.Table { return clusteredZoneTable(tb, 120_000) }
	zonedSerial := func() *Exec { return zoned(serial()) }
	zonedParallel := func() *Exec { return zoned(parallel()) }
	unzonedSerial := func() *Exec { return unzoned(serial()) }
	configs := []config{
		{"big/serial", serial, big, bigTestPlans(), map[string]counterDelta{
			"aggregate_avg":            {0, 1, 0, 0, 0},
			"aggregate_err":            {0, 1, 0, 0, 0},
			"aggregate_max":            {0, 1, 0, 0, 0},
			"aggregate_min":            {0, 1, 0, 0, 0},
			"aggregate_sum":            {0, 1, 0, 0, 0},
			"compare_eq_fold":          {0, 1, 0, 0, 0},
			"compare_ne_entity":        {0, 1, 0, 0, 0},
			"compare_range_text":       {0, 1, 0, 0, 0},
			"filter_and":               {0, 1, 0, 0, 0},
			"group_by":                 {0, 1, 0, 0, 0},
			"group_by_year":            {0, 1, 0, 0, 0},
			"intersect":                {0, 1, 0, 0, 0},
			"project_col":              {0, 1, 0, 0, 0},
			"project_wide":             {0, 1, 0, 0, 0},
			"superlative_max":          {0, 1, 0, 0, 0},
			"superlative_min":          {0, 1, 0, 0, 0},
			"superlative_mixed_serial": {0, 1, 0, 0, 0},
		}},
		{"big/parallel", parallel, big, bigTestPlans(), map[string]counterDelta{
			"aggregate_avg":            {1, 0, 6, 0, 0},
			"aggregate_err":            {1, 0, 3, 0, 0},
			"aggregate_max":            {1, 0, 6, 0, 0},
			"aggregate_min":            {1, 0, 6, 0, 0},
			"aggregate_sum":            {1, 0, 6, 0, 0},
			"compare_eq_fold":          {0, 1, 0, 0, 0},
			"compare_ne_entity":        {1, 0, 3, 0, 0},
			"compare_range_text":       {0, 1, 0, 0, 0},
			"filter_and":               {1, 0, 5, 0, 0},
			"group_by":                 {1, 0, 2, 0, 0},
			"group_by_year":            {1, 0, 3, 0, 0},
			"intersect":                {1, 0, 2, 0, 0},
			"project_col":              {1, 0, 3, 0, 0},
			"project_wide":             {1, 0, 3, 0, 0},
			"superlative_max":          {1, 0, 4, 0, 0},
			"superlative_min":          {1, 0, 4, 0, 0},
			"superlative_mixed_serial": {0, 1, 0, 0, 0},
		}},
		{"zone/serial", zonedSerial, clustered, zoneTestPlans(), map[string]counterDelta{
			"compare_ge":     {0, 1, 0, 0, 0},
			"compare_mixed":  {0, 1, 0, 0, 0},
			"compare_ne_nan": {0, 1, 0, 0, 0},
			"eq_band":        {0, 1, 0, 0, 0},
			"eq_missing":     {0, 1, 0, 0, 0},
			"mixed_nan_le":   {0, 1, 0, 0, 0},
			"mixed_nan_lt":   {0, 1, 0, 4, 0},
			"mixed_range":    {0, 1, 0, 0, 0},
			"ne_band":        {0, 1, 0, 0, 0},
			"not_range":      {0, 1, 0, 3, 0},
			"or_bands":       {0, 1, 0, 0, 0},
			"range_narrow":   {0, 1, 0, 3, 3},
			"range_none":     {0, 1, 0, 4, 0},
			"range_wide":     {0, 1, 0, 0, 3},
			"superlative":    {0, 1, 0, 0, 0},
		}},
		{"zone/parallel", zonedParallel, clustered, zoneTestPlans(), map[string]counterDelta{
			"compare_ge":     {0, 1, 0, 0, 0},
			"compare_mixed":  {1, 0, 4, 0, 0},
			"compare_ne_nan": {1, 0, 4, 0, 0},
			"eq_band":        {0, 1, 0, 0, 0},
			"eq_missing":     {0, 1, 0, 0, 0},
			"mixed_nan_le":   {1, 0, 4, 0, 0},
			"mixed_nan_lt":   {1, 0, 4, 4, 0},
			"mixed_range":    {1, 0, 12, 0, 0},
			"ne_band":        {1, 0, 4, 0, 0},
			"not_range":      {1, 0, 4, 3, 0},
			"or_bands":       {0, 1, 0, 0, 0},
			"range_narrow":   {1, 0, 11, 3, 3},
			"range_none":     {1, 0, 4, 4, 0},
			"range_wide":     {1, 0, 4, 0, 3},
			"superlative":    {0, 1, 0, 0, 0},
		}},
		{"zone/off", unzonedSerial, clustered, zoneTestPlans(), map[string]counterDelta{
			"compare_ge":     {0, 1, 0, 0, 0},
			"compare_mixed":  {0, 1, 0, 0, 0},
			"compare_ne_nan": {0, 1, 0, 0, 0},
			"eq_band":        {0, 1, 0, 0, 0},
			"eq_missing":     {0, 1, 0, 0, 0},
			"mixed_nan_le":   {0, 1, 0, 0, 0},
			"mixed_nan_lt":   {0, 1, 0, 0, 0},
			"mixed_range":    {0, 1, 0, 0, 0},
			"ne_band":        {0, 1, 0, 0, 0},
			"not_range":      {0, 1, 0, 0, 0},
			"or_bands":       {0, 1, 0, 0, 0},
			"range_narrow":   {0, 1, 0, 0, 0},
			"range_none":     {0, 1, 0, 0, 0},
			"range_wide":     {0, 1, 0, 0, 0},
			"superlative":    {0, 1, 0, 0, 0},
		}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			tab := c.table(t)
			names := make([]string, 0, len(c.plans))
			for name := range c.plans {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				x := c.exec()
				runPlan(t, x, c.plans[name], tab)
				got := countersOf(x)
				want, ok := c.want[name]
				if !ok {
					t.Errorf("%s: no pinned counters; got %+v", name, got)
				} else if got != want {
					t.Errorf("%s: counters = %+v, want %+v", name, got, want)
				}
			}
		})
	}
}
