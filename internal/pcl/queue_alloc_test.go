package pcl

import (
	"testing"

	core "liberty/internal/core"
)

// TestQueueSelectAllocs pins the selection path a select function takes
// every cycle (upl's instruction window and reorder buffer) at zero
// allocations, duplicates and out-of-range indices included.
func TestQueueSelectAllocs(t *testing.T) {
	for _, n := range []int{16, 64} {
		order := make([]int, 0, 2*n+1)
		sel := SelectFn(func(entries []any) []int {
			order = append(order[:0], -1)
			for i := len(entries) - 1; i >= 0; i-- {
				order = append(order, i, i)
			}
			return order
		})
		q, err := NewQueue("q", core.Params{"capacity": int64(n), "select": sel})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			q.entries = append(q.entries, i)
		}
		got := q.selected()
		if len(got) != n || got[0] != n-1 || got[n-1] != 0 {
			t.Fatalf("%d entries: selected %v, want %d..0 once each", n, got, n-1)
		}
		if a := testing.AllocsPerRun(100, func() { q.selected() }); a != 0 {
			t.Errorf("%d entries: %.0f allocations per selection, want 0", n, a)
		}
	}
}
