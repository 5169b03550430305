package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// entries returns the memo's resident entries by walking the map.
func (m *Memo[K, V]) entries() int64 {
	n := int64(0)
	m.m.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestMemoCapConcurrent floods a memo with unique one-off keys from many
// goroutines. The reserve-then-store CAS must hold the resident entry
// count exactly equal to the slot count and never let it overshoot the
// cap — a check-then-store version lets N concurrent first-sight misses
// all pass the cap check at limit-1 and overshoot by up to the worker
// count. Run under -race in CI.
func TestMemoCapConcurrent(t *testing.T) {
	const limit = 512
	m := NewMemo[string, int](limit)
	const workers = 16
	const perWorker = 96 // 1536 unique keys, well past the cap
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				if got := m.Get(fmt.Sprintf("cap-race-%d-%d", w, k), func() int { return w*perWorker + k }); got != w*perWorker+k {
					t.Errorf("key %d-%d: got %d", w, k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	entries, count := m.entries(), m.count.Load()
	if count > limit {
		t.Fatalf("slot count %d overshot the %d-entry cap", count, limit)
	}
	if entries != count {
		t.Fatalf("memo holds %d entries but the slot count says %d", entries, count)
	}
	if hits, misses := m.Stats(); hits != 0 || misses != workers*perWorker {
		t.Fatalf("stats %d hit/%d miss, want 0/%d", hits, misses, workers*perWorker)
	}
}

// TestMemoDuplicateKeyReservesOneSlot has many goroutines miss on one fresh
// key at once (compute holds each of them until all have missed, so every
// one of them races to store): exactly one slot may stay reserved for the
// key (losers must return theirs), and every later lookup hits.
func TestMemoDuplicateKeyReservesOneSlot(t *testing.T) {
	const goroutines = 32
	m := NewMemo[string, int](2 * goroutines)
	var missed atomic.Int32
	allMissed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			_ = m.Get("dup-key-probe", func() int {
				if missed.Add(1) == goroutines {
					close(allMissed)
				}
				<-allMissed
				return 7
			})
		}()
	}
	wg.Wait()
	if n := m.count.Load(); n != 1 || m.entries() != 1 {
		t.Fatalf("one key consumed %d slots (%d entries)", n, m.entries())
	}
	h0, m0 := m.Stats()
	if got := m.Get("dup-key-probe", func() int { t.Fatal("recomputed a stored key"); return 0 }); got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
	if h1, m1 := m.Stats(); h1 != h0+1 || m1 != m0 {
		t.Fatalf("repeat lookup: hits %d->%d misses %d->%d, want one hit", h0, h1, m0, m1)
	}
}

// TestMemoFullComputesWithoutStoring checks that past the cap values are
// still computed and returned, just not stored.
func TestMemoFullComputesWithoutStoring(t *testing.T) {
	m := NewMemo[int, int](2)
	for k := 0; k < 5; k++ {
		if got := m.Get(k, func() int { return k * k }); got != k*k {
			t.Fatalf("key %d: got %d", k, got)
		}
	}
	calls := 0
	_ = m.Get(4, func() int { calls++; return 16 })
	if calls != 1 || m.entries() != 2 {
		t.Fatalf("key past the cap: %d computes, %d entries; want 1 compute, 2 entries", calls, m.entries())
	}
}
