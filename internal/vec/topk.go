package vec

// Neighbor is a scored retrieval candidate. Depending on context Score is a
// distance (smaller is better) or a similarity (larger is better); the
// selection helpers below are explicit about direction.
type Neighbor struct {
	ID    int64
	Score float32
}

// TopK maintains the k best candidates seen so far. It is a bounded
// max-heap: the root is the current worst retained candidate, so a new
// candidate replaces the root when it beats it. Candidates are ordered by
// score, then id — a strict total order, so the retained set and the order
// Results returns it in depend only on what was offered, never on the order
// it was offered in (grouped, sequential and distributed scans visit cells
// in different orders and must agree). Use one instance per query; the zero
// value is not usable — call NewTopK.
type TopK struct {
	k    int
	heap []Neighbor // max-heap by (Score, ID)
}

// worse reports whether a ranks strictly after b.
func worse(a, b Neighbor) bool {
	return a.Score > b.Score || (a.Score == b.Score && a.ID > b.ID)
}

// NewTopK returns a selector retaining the k smallest-scored neighbors.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("vec: NewTopK requires k > 0")
	}
	return &TopK{k: k, heap: make([]Neighbor, 0, k)}
}

// Reset re-arms the selector for a new query retaining the k smallest-scored
// neighbors, reusing the underlying buffer. It lets a per-searcher scratch
// TopK serve successive queries without allocating.
func (t *TopK) Reset(k int) {
	if k <= 0 {
		panic("vec: TopK.Reset requires k > 0")
	}
	t.k = k
	if cap(t.heap) < k {
		t.heap = make([]Neighbor, 0, k)
	} else {
		t.heap = t.heap[:0]
	}
}

// Push offers a candidate; it is retained if fewer than k candidates are held
// or it beats the current worst (a lower score, or the same score and a
// lower id).
func (t *TopK) Push(id int64, score float32) {
	c := Neighbor{ID: id, Score: score}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, c)
		t.siftUp(len(t.heap) - 1)
		return
	}
	if !worse(t.heap[0], c) {
		return
	}
	t.heap[0] = c
	t.siftDown(0)
}

// WorstScore returns the score of the worst retained candidate, or +Inf-like
// behaviour via (ok=false) when fewer than k candidates are held. Callers use
// it to prune scans early: a candidate scoring strictly above it can be
// skipped, one that ties it must still be offered so Push can compare ids.
func (t *TopK) WorstScore() (float32, bool) {
	if len(t.heap) < t.k {
		return 0, false
	}
	return t.heap[0].Score, true
}

// Len returns the number of retained candidates.
func (t *TopK) Len() int { return len(t.heap) }

// Results destructively extracts the retained neighbors ordered best
// (smallest score) first.
func (t *TopK) Results() []Neighbor {
	out := make([]Neighbor, 0, len(t.heap))
	return t.AppendResults(out)
}

// AppendResults destructively extracts the retained neighbors, best first,
// appending them to dst and returning the extended slice. With a dst of
// sufficient capacity the extraction performs no allocation, which is how the
// zero-allocation search paths return results from pooled scratch.
func (t *TopK) AppendResults(dst []Neighbor) []Neighbor {
	base := len(dst)
	dst = append(dst, t.heap...)
	out := dst[base:]
	for i := len(t.heap) - 1; i >= 0; i-- {
		out[i] = t.heap[0]
		last := len(t.heap) - 1
		t.heap[0] = t.heap[last]
		t.heap = t.heap[:last]
		t.siftDown(0)
	}
	return dst
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(t.heap[i], t.heap[parent]) {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && worse(t.heap[l], t.heap[largest]) {
			largest = l
		}
		if r < n && worse(t.heap[r], t.heap[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}
