// Package pq provides a small generic binary-heap priority queue used for
// EDF ready queues, release event queues and the offline schedulers'
// frontier sets. It is a value-oriented alternative to container/heap: no
// interface boxing, no Push/Pop method boilerplate at call sites.
package pq

// Heap is a binary min-heap ordered by less. The zero value with a nil less
// is not usable; construct with New.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less.
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Empty reports whether the heap has no items.
func (h *Heap[T]) Empty() bool { return len(h.items) == 0 }

// Push adds an item.
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.up(len(h.items) - 1)
}

// Peek returns the minimum item without removing it. ok is false when empty.
func (h *Heap[T]) Peek() (v T, ok bool) {
	if len(h.items) == 0 {
		return v, false
	}
	return h.items[0], true
}

// Pop removes and returns the minimum item. ok is false when empty.
func (h *Heap[T]) Pop() (v T, ok bool) {
	if len(h.items) == 0 {
		return v, false
	}
	v = h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return v, true
}

// ReplaceMin replaces the minimum item with v and restores heap order with
// one sift-down from the root, where Pop followed by Push(v) would move the
// last item to the root, sift it down and then sift v up. When less is a
// total order the queue yields the same sequence either way. The heap must
// not be empty.
func (h *Heap[T]) ReplaceMin(v T) {
	h.items[0] = v
	h.down(0)
}

// Items returns the backing slice in heap order (not sorted). Read-only;
// primarily for policies that must scan all pending items.
func (h *Heap[T]) Items() []T { return h.items }

// Clear removes all items but keeps the capacity.
func (h *Heap[T]) Clear() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

// RemoveFunc removes the first item satisfying match and returns it.
// ok is false when no item matches. O(n) scan plus O(log n) fix-up.
func (h *Heap[T]) RemoveFunc(match func(T) bool) (v T, ok bool) {
	for i := range h.items {
		if match(h.items[i]) {
			v = h.items[i]
			last := len(h.items) - 1
			h.items[i] = h.items[last]
			var zero T
			h.items[last] = zero
			h.items = h.items[:last]
			if i < last {
				if !h.up(i) {
					h.down(i)
				}
			}
			return v, true
		}
	}
	return v, false
}

// up sifts position i toward the root and reports whether it moved. The
// sifted item rides a hole: each ancestor it passes shifts down one
// position, and the item is written once, at its final position.
func (h *Heap[T]) up(i int) bool {
	v := h.items[i]
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = v
	return i != start
}

// down sifts position i toward the leaves, hole-style like up.
func (h *Heap[T]) down(i int) {
	v := h.items[i]
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(h.items[r], h.items[c]) {
			c = r
		}
		if !h.less(h.items[c], v) {
			break
		}
		h.items[i] = h.items[c]
		i = c
	}
	h.items[i] = v
}
