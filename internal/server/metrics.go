package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	fsam "repro"
	"repro/internal/diag"
	"repro/internal/facts"
)

// latencyBuckets are the request-duration histogram bounds in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// metrics is the hand-rolled Prometheus-text registry: the repo takes no
// dependencies, and the text exposition format is small enough to write
// directly. Everything is guarded by one mutex; scrapes are rare and
// observations cheap.
type metrics struct {
	mu      sync.Mutex
	started time.Time

	// requests[path][status] counts completed HTTP requests.
	requests map[string]map[int]uint64

	// Request-latency histogram (all endpoints).
	latCounts []uint64 // per-bucket (non-cumulative; cumulated at write)
	latOver   uint64   // > last bucket (+Inf - last)
	latSum    float64
	latCount  uint64

	// Pipeline-side counters: analyses actually run (cache hits and
	// deduplicated followers do not count), per-phase wall time, and the
	// precision tier distribution.
	analyses     uint64
	phaseSeconds map[string]float64
	tiers        map[string]uint64
	engines      map[string]uint64

	// Incremental (base+patch) runs by the delta tier they landed on.
	deltas map[string]uint64

	// Admission outcomes.
	shed  map[string]uint64 // reason -> count
	dedup uint64            // singleflight followers

	// Diagnostics endpoint: requests served and findings returned per
	// checker (cached suite runs count every time they are served, so the
	// series tracks what clients saw, not pipeline work).
	diagRequests uint64
	diagFindings map[string]uint64
}

func newMetrics() *metrics {
	return &metrics{
		started:      time.Now(),
		requests:     map[string]map[int]uint64{},
		latCounts:    make([]uint64, len(latencyBuckets)),
		phaseSeconds: map[string]float64{},
		tiers:        map[string]uint64{},
		engines:      map[string]uint64{},
		deltas:       map[string]uint64{},
		shed:         map[string]uint64{},
		diagFindings: map[string]uint64{},
	}
}

func (m *metrics) observeRequest(path string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus := m.requests[path]
	if byStatus == nil {
		byStatus = map[int]uint64{}
		m.requests[path] = byStatus
	}
	byStatus[status]++
	s := d.Seconds()
	m.latSum += s
	m.latCount++
	placed := false
	for i, b := range latencyBuckets {
		if s <= b {
			m.latCounts[i]++
			placed = true
			break
		}
	}
	if !placed {
		m.latOver++
	}
}

// observeAnalysis records one pipeline run's tier and per-phase times.
func (m *metrics) observeAnalysis(a *fsam.Analysis) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.analyses++
	m.tiers[a.Precision.String()]++
	m.engines[a.Engine]++
	a.Stats.Times.Each(func(phase string, d time.Duration) {
		m.phaseSeconds[phase] += d.Seconds()
	})
}

// observeDelta records one base+patch run by its delta tier.
func (m *metrics) observeDelta(tier string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deltas[tier]++
}

func (m *metrics) observeShed(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed[reason]++
}

func (m *metrics) observeDedup() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dedup++
}

// observeDiagnostics records one served diagnostics request and its
// findings by checker.
func (m *metrics) observeDiagnostics(diags []diag.Diagnostic) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.diagRequests++
	for _, d := range diags {
		m.diagFindings[d.Checker]++
	}
}

// write emits the Prometheus text exposition. The gauges that live
// elsewhere (cache counters, admission occupancy, drain flag) are passed
// in as snapshots so the registry needs no back-references.
func (m *metrics) write(w io.Writer, cs cacheStats, fc facts.Counters, inflight, queued int64, draining bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP fsamd_requests_total Completed HTTP requests by path and status.\n")
	fmt.Fprintf(w, "# TYPE fsamd_requests_total counter\n")
	for _, path := range sortedKeys(m.requests) {
		byStatus := m.requests[path]
		statuses := make([]int, 0, len(byStatus))
		for s := range byStatus {
			statuses = append(statuses, s)
		}
		sort.Ints(statuses)
		for _, s := range statuses {
			fmt.Fprintf(w, "fsamd_requests_total{path=%q,code=\"%d\"} %d\n", path, s, byStatus[s])
		}
	}

	fmt.Fprintf(w, "# HELP fsamd_request_duration_seconds Request latency, all endpoints.\n")
	fmt.Fprintf(w, "# TYPE fsamd_request_duration_seconds histogram\n")
	var cum uint64
	for i, b := range latencyBuckets {
		cum += m.latCounts[i]
		fmt.Fprintf(w, "fsamd_request_duration_seconds_bucket{le=\"%g\"} %d\n", b, cum)
	}
	fmt.Fprintf(w, "fsamd_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum+m.latOver)
	fmt.Fprintf(w, "fsamd_request_duration_seconds_sum %g\n", m.latSum)
	fmt.Fprintf(w, "fsamd_request_duration_seconds_count %d\n", m.latCount)

	fmt.Fprintf(w, "# HELP fsamd_cache_hits_total Analyze requests served from the result cache.\n")
	fmt.Fprintf(w, "# TYPE fsamd_cache_hits_total counter\n")
	fmt.Fprintf(w, "fsamd_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# TYPE fsamd_cache_misses_total counter\n")
	fmt.Fprintf(w, "fsamd_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# TYPE fsamd_cache_evictions_total counter\n")
	fmt.Fprintf(w, "fsamd_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(w, "# TYPE fsamd_cache_bytes gauge\n")
	fmt.Fprintf(w, "fsamd_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(w, "# TYPE fsamd_cache_entries gauge\n")
	fmt.Fprintf(w, "fsamd_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "# HELP fsamd_cache_hit_ratio Hits over analyze-path lookups.\n")
	fmt.Fprintf(w, "# TYPE fsamd_cache_hit_ratio gauge\n")
	fmt.Fprintf(w, "fsamd_cache_hit_ratio %g\n", cs.HitRatio())

	fmt.Fprintf(w, "# HELP fsamd_facts_hits_total Per-function fact-store lookups answered from the store.\n")
	fmt.Fprintf(w, "# TYPE fsamd_facts_hits_total counter\n")
	fmt.Fprintf(w, "fsamd_facts_hits_total %d\n", fc.Hits)
	fmt.Fprintf(w, "# TYPE fsamd_facts_misses_total counter\n")
	fmt.Fprintf(w, "fsamd_facts_misses_total %d\n", fc.Misses)
	fmt.Fprintf(w, "# TYPE fsamd_facts_invalidations_total counter\n")
	fmt.Fprintf(w, "fsamd_facts_invalidations_total %d\n", fc.Invalidations)
	fmt.Fprintf(w, "# TYPE fsamd_facts_evictions_total counter\n")
	fmt.Fprintf(w, "fsamd_facts_evictions_total %d\n", fc.Evictions)
	fmt.Fprintf(w, "# TYPE fsamd_facts_entries gauge\n")
	fmt.Fprintf(w, "fsamd_facts_entries %d\n", fc.Entries)
	fmt.Fprintf(w, "# HELP fsamd_facts_hit_ratio Fact-store hits over lookups since start.\n")
	fmt.Fprintf(w, "# TYPE fsamd_facts_hit_ratio gauge\n")
	fmt.Fprintf(w, "fsamd_facts_hit_ratio %g\n", fc.HitRatio())

	fmt.Fprintf(w, "# HELP fsamd_delta_total Incremental (base+patch) analyses by delta tier.\n")
	fmt.Fprintf(w, "# TYPE fsamd_delta_total counter\n")
	for _, tier := range sortedKeys(m.deltas) {
		fmt.Fprintf(w, "fsamd_delta_total{tier=%q} %d\n", tier, m.deltas[tier])
	}

	fmt.Fprintf(w, "# HELP fsamd_analyses_total Pipeline runs (cache hits and deduplicated requests excluded).\n")
	fmt.Fprintf(w, "# TYPE fsamd_analyses_total counter\n")
	fmt.Fprintf(w, "fsamd_analyses_total %d\n", m.analyses)

	fmt.Fprintf(w, "# HELP fsamd_phase_seconds_total Cumulative pipeline wall time by phase.\n")
	fmt.Fprintf(w, "# TYPE fsamd_phase_seconds_total counter\n")
	for _, phase := range sortedKeys(m.phaseSeconds) {
		fmt.Fprintf(w, "fsamd_phase_seconds_total{phase=%q} %g\n", phase, m.phaseSeconds[phase])
	}

	fmt.Fprintf(w, "# HELP fsamd_engine_total Analyses by the engine that produced the result.\n")
	fmt.Fprintf(w, "# TYPE fsamd_engine_total counter\n")
	for _, eng := range sortedKeys(m.engines) {
		fmt.Fprintf(w, "fsamd_engine_total{engine=%q} %d\n", eng, m.engines[eng])
	}
	fmt.Fprintf(w, "# HELP fsamd_precision_total Analyses by the tier the degradation ladder landed on.\n")
	fmt.Fprintf(w, "# TYPE fsamd_precision_total counter\n")
	for _, tier := range sortedKeys(m.tiers) {
		fmt.Fprintf(w, "fsamd_precision_total{tier=%q} %d\n", tier, m.tiers[tier])
	}

	fmt.Fprintf(w, "# HELP fsamd_shed_total Analyze requests shed by admission control.\n")
	fmt.Fprintf(w, "# TYPE fsamd_shed_total counter\n")
	for _, reason := range sortedKeys(m.shed) {
		fmt.Fprintf(w, "fsamd_shed_total{reason=%q} %d\n", reason, m.shed[reason])
	}

	fmt.Fprintf(w, "# HELP fsamd_diagnostics_requests_total Diagnostics requests served.\n")
	fmt.Fprintf(w, "# TYPE fsamd_diagnostics_requests_total counter\n")
	fmt.Fprintf(w, "fsamd_diagnostics_requests_total %d\n", m.diagRequests)

	fmt.Fprintf(w, "# HELP fsamd_diagnostics_findings_total Findings returned by the diagnostics endpoint, by checker.\n")
	fmt.Fprintf(w, "# TYPE fsamd_diagnostics_findings_total counter\n")
	for _, checker := range sortedKeys(m.diagFindings) {
		fmt.Fprintf(w, "fsamd_diagnostics_findings_total{checker=%q} %d\n", checker, m.diagFindings[checker])
	}

	fmt.Fprintf(w, "# HELP fsamd_dedup_total Analyze requests deduplicated onto an in-flight identical solve.\n")
	fmt.Fprintf(w, "# TYPE fsamd_dedup_total counter\n")
	fmt.Fprintf(w, "fsamd_dedup_total %d\n", m.dedup)

	fmt.Fprintf(w, "# TYPE fsamd_inflight gauge\n")
	fmt.Fprintf(w, "fsamd_inflight %d\n", inflight)
	fmt.Fprintf(w, "# TYPE fsamd_queued gauge\n")
	fmt.Fprintf(w, "fsamd_queued %d\n", queued)
	fmt.Fprintf(w, "# TYPE fsamd_draining gauge\n")
	b := 0
	if draining {
		b = 1
	}
	fmt.Fprintf(w, "fsamd_draining %d\n", b)
	fmt.Fprintf(w, "# TYPE fsamd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "fsamd_uptime_seconds %g\n", time.Since(m.started).Seconds())
}

// sortedKeys returns the sorted keys of a string-keyed map, for
// deterministic exposition output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
