package metric

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is a hierarchical namespace of metrics. A root registry
// owns the name table; Sub carves out a dotted prefix that shares it,
// so sub-registries compose into one flat, collision-checked namespace
// ("engine.", "store.", "server.http.") scraped as a unit.
//
// Registration is expected at wiring time (process start) and panics
// on invalid or duplicate names — a misnamed series is a build bug,
// not a runtime condition. Recording on registered metrics and
// visiting/rendering are safe concurrently with registration.
type Registry struct {
	root   *Registry // nil on the root itself
	prefix string    // "" on the root, "engine." etc. on subs

	mu      sync.RWMutex // guards metrics + names; root only
	metrics map[string]Metric
	names   []string // sorted full names
}

// NewRegistry builds an empty root registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]Metric)}
}

// Sub returns a child registry whose registrations are prefixed with
// prefix + "." in the shared root namespace. Sub("engine").Sub("cache")
// and Sub("engine.cache") are equivalent.
func (r *Registry) Sub(prefix string) *Registry {
	if !validName(prefix) {
		panic(fmt.Sprintf("metric: invalid registry prefix %q", prefix))
	}
	root := r.rootOf()
	return &Registry{root: root, prefix: r.prefix + prefix + "."}
}

func (r *Registry) rootOf() *Registry {
	if r.root != nil {
		return r.root
	}
	return r
}

// validName accepts dotted names of non-empty lowercase segments:
// [a-z0-9_]+ joined by single dots.
func validName(name string) bool {
	if name == "" {
		return false
	}
	segStart := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '.':
			if segStart {
				return false // empty segment (leading, trailing or "..")
			}
			segStart = true
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			segStart = false
		default:
			return false
		}
	}
	return !segStart
}

// Register installs m under the registry's prefix + name. It panics on
// a malformed name or a duplicate registration anywhere in the shared
// namespace — the conditions the metrics-lint CI check exists to catch.
func (r *Registry) Register(name string, m Metric) {
	if !validName(name) {
		panic(fmt.Sprintf("metric: invalid name %q (want lowercase dotted segments)", name))
	}
	full := r.prefix + name
	root := r.rootOf()
	root.mu.Lock()
	defer root.mu.Unlock()
	if _, dup := root.metrics[full]; dup {
		panic(fmt.Sprintf("metric: duplicate registration of %q", full))
	}
	switch v := m.(type) {
	case *Counter:
		v.meta.name = full
	case *GaugeFunc:
		v.meta.name = full
	case *CounterFunc:
		v.meta.name = full
	case *Histogram:
		v.meta.name = full
	default:
		panic(fmt.Sprintf("metric: unsupported metric type %T for %q", m, full))
	}
	root.metrics[full] = m
	i := sort.SearchStrings(root.names, full)
	root.names = append(root.names, "")
	copy(root.names[i+1:], root.names[i:])
	root.names[i] = full
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := NewCounter(help)
	r.Register(name, c)
	return c
}

// GaugeFunc registers a scrape-time functional gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	g := NewGaugeFunc(help, fn)
	r.Register(name, g)
	return g
}

// CounterFunc registers a scrape-time functional counter.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) *CounterFunc {
	c := NewCounterFunc(help, fn)
	r.Register(name, c)
	return c
}

// LatencyHistogram registers and returns a histogram recording
// durations (nanoseconds) and exposing seconds. By convention name it
// "<path>.latency.seconds".
func (r *Registry) LatencyHistogram(name, help string) *Histogram {
	h := NewLatencyHistogram(help)
	r.Register(name, h)
	return h
}

// Visit calls fn for every metric in the shared namespace, ascending
// by full dotted name. It holds no lock during fn: registrations
// landing mid-visit may or may not be seen.
func (r *Registry) Visit(fn func(Metric)) {
	root := r.rootOf()
	root.mu.RLock()
	names := make([]string, len(root.names))
	copy(names, root.names)
	root.mu.RUnlock()
	for _, name := range names {
		root.mu.RLock()
		m := root.metrics[name]
		root.mu.RUnlock()
		if m != nil {
			fn(m)
		}
	}
}

// Get resolves a full dotted name to its metric.
func (r *Registry) Get(name string) (Metric, bool) {
	root := r.rootOf()
	root.mu.RLock()
	defer root.mu.RUnlock()
	m, ok := root.metrics[name]
	return m, ok
}
