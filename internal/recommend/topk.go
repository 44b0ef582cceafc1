package recommend

import (
	"math"
	"slices"
)

// betterRec is the canonical recommendation order every selector in this
// package ranks under: higher score first, ties broken by ascending measure
// ID, NaN scores last. Measure IDs are unique within an item set, so this
// is a total order — which is what makes bounded-heap selection return
// exactly what sorting the full list and truncating would.
func betterRec(a, b Recommendation) bool {
	if a.Score > b.Score {
		return true
	}
	if b.Score > a.Score {
		return false
	}
	if an, bn := math.IsNaN(a.Score), math.IsNaN(b.Score); an != bn {
		return bn
	}
	return a.MeasureID < b.MeasureID
}

// betterContribution orders explanation contributions: larger product
// first, ties broken by term order, NaN products last.
func betterContribution(a, b Contribution) bool {
	if a.Product > b.Product {
		return true
	}
	if b.Product > a.Product {
		return false
	}
	if an, bn := math.IsNaN(a.Product), math.IsNaN(b.Product); an != bn {
		return bn
	}
	return a.Term.Compare(b.Term) < 0
}

// bounded is a bounded top-k selector: a size-k min-heap holding the k best
// elements seen so far with the worst at the root, so each offer beyond the
// k-th costs one comparison against the current cutoff and O(log k) on
// admission. take sorts just the k survivors. Under a total order the
// result is exactly sort-everything-then-truncate, without materializing or
// sorting the full candidate list.
type bounded[T any] struct {
	better func(a, b T) bool
	xs     []T
	k      int
}

// newBounded returns a selector for the k best elements under better.
func newBounded[T any](k int, better func(a, b T) bool) bounded[T] {
	if k < 0 {
		k = 0
	}
	cap := k
	if cap > 16 {
		cap = 16 // grown on demand; callers may pass k ≫ the element count
	}
	return bounded[T]{better: better, xs: make([]T, 0, cap), k: k}
}

// offer considers one element for the top k.
func (h *bounded[T]) offer(x T) {
	if h.k == 0 {
		return
	}
	if len(h.xs) < h.k {
		h.xs = append(h.xs, x)
		h.up(len(h.xs) - 1)
		return
	}
	if !h.better(x, h.xs[0]) {
		return
	}
	h.xs[0] = x
	h.down(0)
}

// take returns the selected elements best-first. The heap is consumed.
func (h *bounded[T]) take() []T {
	if len(h.xs) == 0 {
		return nil
	}
	slices.SortFunc(h.xs, func(a, b T) int {
		switch {
		case h.better(a, b):
			return -1
		case h.better(b, a):
			return 1
		default:
			return 0
		}
	})
	return h.xs
}

func (h *bounded[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.better(h.xs[p], h.xs[i]) {
			return
		}
		h.xs[p], h.xs[i] = h.xs[i], h.xs[p]
		i = p
	}
}

func (h *bounded[T]) down(i int) {
	for {
		w := i
		if l := 2*i + 1; l < len(h.xs) && h.better(h.xs[w], h.xs[l]) {
			w = l
		}
		if r := 2*i + 2; r < len(h.xs) && h.better(h.xs[w], h.xs[r]) {
			w = r
		}
		if w == i {
			return
		}
		h.xs[i], h.xs[w] = h.xs[w], h.xs[i]
		i = w
	}
}
