package pq

import (
	"sort"
	"testing"
	"testing/quick"
)

func intHeap() *Heap[int] {
	return New(func(a, b int) bool { return a < b })
}

func TestEmptyBehaviour(t *testing.T) {
	h := intHeap()
	if !h.Empty() || h.Len() != 0 {
		t.Error("fresh heap not empty")
	}
	if _, ok := h.Peek(); ok {
		t.Error("Peek on empty heap returned ok")
	}
	if _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap returned ok")
	}
}

func TestPushPopOrdering(t *testing.T) {
	h := intHeap()
	in := []int{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, v := range in {
		h.Push(v)
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(in))
	}
	for want := 0; want < len(in); want++ {
		if v, ok := h.Peek(); !ok || v != want {
			t.Fatalf("Peek = %d,%v, want %d", v, ok, want)
		}
		v, ok := h.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v, want %d", v, ok, want)
		}
	}
	if !h.Empty() {
		t.Error("heap not empty after draining")
	}
}

func TestDuplicates(t *testing.T) {
	h := intHeap()
	for _, v := range []int{3, 3, 1, 1, 2} {
		h.Push(v)
	}
	got := make([]int, 0, 5)
	for !h.Empty() {
		v, _ := h.Pop()
		got = append(got, v)
	}
	want := []int{1, 1, 2, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestClear(t *testing.T) {
	h := intHeap()
	for i := 0; i < 10; i++ {
		h.Push(i)
	}
	h.Clear()
	if !h.Empty() {
		t.Error("Clear did not empty heap")
	}
	h.Push(42)
	if v, _ := h.Pop(); v != 42 {
		t.Error("heap unusable after Clear")
	}
}

func TestRemoveFunc(t *testing.T) {
	h := intHeap()
	for _, v := range []int{5, 3, 8, 1, 9} {
		h.Push(v)
	}
	v, ok := h.RemoveFunc(func(x int) bool { return x == 8 })
	if !ok || v != 8 {
		t.Fatalf("RemoveFunc(8) = %d,%v", v, ok)
	}
	if _, ok := h.RemoveFunc(func(x int) bool { return x == 100 }); ok {
		t.Error("RemoveFunc matched a missing item")
	}
	var got []int
	for !h.Empty() {
		v, _ := h.Pop()
		got = append(got, v)
	}
	want := []int{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("after removal: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after removal got %v, want %v", got, want)
		}
	}
}

func TestRemoveFuncRoot(t *testing.T) {
	h := intHeap()
	for _, v := range []int{4, 7, 5} {
		h.Push(v)
	}
	if v, ok := h.RemoveFunc(func(x int) bool { return x == 4 }); !ok || v != 4 {
		t.Fatalf("remove root failed: %d,%v", v, ok)
	}
	if v, _ := h.Pop(); v != 5 {
		t.Errorf("heap order broken after root removal: got %d", v)
	}
}

func TestRemoveFuncLast(t *testing.T) {
	h := intHeap()
	h.Push(1)
	h.Push(2)
	// items layout: [1 2]; remove index 1 (the last element).
	if v, ok := h.RemoveFunc(func(x int) bool { return x == 2 }); !ok || v != 2 {
		t.Fatalf("remove last failed: %d,%v", v, ok)
	}
	if v, _ := h.Pop(); v != 1 {
		t.Error("heap broken after last removal")
	}
}

func TestStructsWithTieBreak(t *testing.T) {
	type job struct{ deadline, seq int }
	h := New(func(a, b job) bool {
		if a.deadline != b.deadline {
			return a.deadline < b.deadline
		}
		return a.seq < b.seq
	})
	h.Push(job{10, 2})
	h.Push(job{10, 1})
	h.Push(job{5, 3})
	want := []job{{5, 3}, {10, 1}, {10, 2}}
	for _, w := range want {
		v, _ := h.Pop()
		if v != w {
			t.Fatalf("got %+v, want %+v", v, w)
		}
	}
}

// Property: popping everything yields a sorted permutation of the input.
func TestHeapSortProperty(t *testing.T) {
	f := func(in []int) bool {
		h := intHeap()
		for _, v := range in {
			h.Push(v)
		}
		out := make([]int, 0, len(in))
		for !h.Empty() {
			v, _ := h.Pop()
			out = append(out, v)
		}
		if len(out) != len(in) {
			return false
		}
		want := append([]int(nil), in...)
		sort.Ints(want)
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: RemoveFunc of an arbitrary element keeps the heap valid.
func TestRemoveFuncProperty(t *testing.T) {
	f := func(in []uint8, pick uint8) bool {
		if len(in) == 0 {
			return true
		}
		h := intHeap()
		for _, v := range in {
			h.Push(int(v))
		}
		target := int(in[int(pick)%len(in)])
		if _, ok := h.RemoveFunc(func(x int) bool { return x == target }); !ok {
			return false
		}
		prev := -1
		for !h.Empty() {
			v, _ := h.Pop()
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReplaceMin(t *testing.T) {
	h := intHeap()
	for _, v := range []int{5, 3, 8, 1} {
		h.Push(v)
	}
	h.ReplaceMin(9) // 1 leaves, 9 joins
	h.ReplaceMin(0) // 3 leaves, 0 becomes the minimum
	want := []int{0, 5, 8, 9}
	for _, w := range want {
		if v, _ := h.Pop(); v != w {
			t.Fatalf("got %d, want %d", v, w)
		}
	}
	if !h.Empty() {
		t.Fatal("heap not empty")
	}
}

// Property: ReplaceMin(v) leaves the heap popping the same sequence as Pop
// followed by Push(v).
func TestReplaceMinMatchesPopPush(t *testing.T) {
	f := func(in []int16, repl []int16) bool {
		if len(in) == 0 {
			return true
		}
		a, b := intHeap(), intHeap()
		for _, v := range in {
			a.Push(int(v))
			b.Push(int(v))
		}
		for _, v := range repl {
			a.ReplaceMin(int(v))
			b.Pop()
			b.Push(int(v))
		}
		for !b.Empty() {
			x, _ := a.Pop()
			y, _ := b.Pop()
			if x != y {
				return false
			}
		}
		return a.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
