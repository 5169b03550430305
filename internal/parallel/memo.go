package parallel

import (
	"sync"
	"sync/atomic"
)

// Memo is a concurrency-safe memo of pure computations holding at most a
// fixed number of entries, so a stream of one-off keys cannot grow it
// without bound: past the cap, values are computed but not stored. Stored
// values are shared across callers and goroutines, so they must be treated
// as read-only.
type Memo[K comparable, V any] struct {
	m            sync.Map // K -> V
	limit        int64
	count        atomic.Int64 // resident entries
	hits, misses atomic.Int64
}

// NewMemo returns an empty memo holding at most limit entries.
func NewMemo[K comparable, V any](limit int) *Memo[K, V] {
	return &Memo[K, V]{limit: int64(limit)}
}

// Get returns the value memoized for key, calling compute and (cap
// permitting) storing its result on first sight. Two goroutines missing on
// the same key may both compute; each returns its own result.
//
// The cap is enforced by reserving a slot before storing: a plain "check
// count, then LoadOrStore" lets N concurrent first-sight misses all pass
// the check at limit-1 and overshoot the bound by up to the worker count.
// The CAS increment below admits exactly one storer per free slot; a
// storer that then loses the LoadOrStore race (another goroutine inserted
// the same key first) returns its reservation, so the count always equals
// the number of entries actually resident.
func (m *Memo[K, V]) Get(key K, compute func() V) V {
	if v, ok := m.m.Load(key); ok {
		m.hits.Add(1)
		return v.(V)
	}
	m.misses.Add(1)
	v := compute()
	for {
		n := m.count.Load()
		if n >= m.limit {
			return v
		}
		if !m.count.CompareAndSwap(n, n+1) {
			continue // another goroutine moved the count; re-check the cap
		}
		if _, loaded := m.m.LoadOrStore(key, v); loaded {
			m.count.Add(-1) // lost the insert race; give the slot back
		}
		return v
	}
}

// Stats returns the cumulative hit/miss counters. The counters only grow;
// callers wanting per-run telemetry snapshot before and diff after.
// Concurrent runs share the counters, so a diff taken while another run is
// in flight attributes its lookups too — the numbers are telemetry, not an
// accounting invariant.
func (m *Memo[K, V]) Stats() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}
