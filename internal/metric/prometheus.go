package metric

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// promName maps a dotted metric name to its Prometheus series name:
// dots become underscores ("engine.cache.result.hits" ->
// "engine_cache_result_hits"). Registered names only contain
// [a-z0-9_.], so no further escaping is needed.
func promName(name string) string {
	return strings.ReplaceAll(name, ".", "_")
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry's full namespace as Prometheus
// text exposition (version 0.0.4): one "# HELP"/"# TYPE" header per
// metric, counters and gauges as single samples, histograms as
// cumulative _bucket series (non-empty buckets plus +Inf) with _sum
// and _count, in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.Visit(func(m Metric) {
		name := promName(m.Name())
		bw.WriteString("# HELP ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(strings.ReplaceAll(m.Help(), "\n", " "))
		bw.WriteString("\n# TYPE ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(m.Kind().String())
		bw.WriteByte('\n')
		switch v := m.(type) {
		case *Counter:
			writeSample(bw, name, "", strconv.FormatUint(v.Count(), 10))
		case *GaugeFunc:
			writeSample(bw, name, "", strconv.FormatInt(v.Value(), 10))
		case *CounterFunc:
			writeSample(bw, name, "", strconv.FormatUint(v.Count(), 10))
		case *Histogram:
			s := v.Snapshot()
			for _, b := range s.Buckets {
				writeSample(bw, name+"_bucket", `{le="`+formatFloat(b.Upper)+`"}`,
					strconv.FormatUint(b.CumCount, 10))
			}
			total := strconv.FormatUint(s.Count(), 10)
			writeSample(bw, name+"_bucket", `{le="+Inf"}`, total)
			writeSample(bw, name+"_sum", "", formatFloat(s.Sum))
			writeSample(bw, name+"_count", "", total)
		}
	})
	return bw.Flush()
}

func writeSample(bw *bufio.Writer, name, labels, value string) {
	bw.WriteString(name)
	bw.WriteString(labels)
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}
