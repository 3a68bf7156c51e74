package route

// heapItem is one frontier entry: the priority f = g+h, the node's
// RealKey (the deterministic tie-break) and the node's dense scratch
// index.
type heapItem struct {
	cost float64
	key  uint64
	idx  int32
}

func itemLess(a, b heapItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.key < b.key
}

// minHeap is a hand-rolled binary min-heap of value items — no
// interface{} boxing, no per-push allocation once warmed up. The bucket
// queue keeps one small heap per deci-cost bucket.
type minHeap []heapItem

func (h *minHeap) push(it heapItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *minHeap) pop() heapItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && itemLess(q[r], q[l]) {
			m = r
		}
		if !itemLess(q[m], q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// deci quantizes a cost onto the bucket grid. Every cost atom (base
// costs, presence penalties, history bumps, heuristic terms) is an exact
// multiple of 0.1, so accumulated float sums sit within ulps of a grid
// point and round-to-nearest recovers the exact deci value; two sums
// that are mathematically equal but float-unequal always land in the
// same bucket, where the per-bucket heap orders them by the exact float.
func deci(f float64) int { return int(f*10 + 0.5) }

// bucketQueue is a Dial-style monotone priority queue: frontier entries
// hash into deci-cost buckets popped in ascending order, and each bucket
// is a small binary min-heap over the exact (cost, RealKey) pair. Pops
// therefore follow the exact global (cost, key) order of one big heap,
// but push/pop touch only a bucket-sized heap — on wide frontiers the
// log factor collapses to the handful of entries sharing one deci cost.
// Buckets grow monotonically and are generation-stamped like the rest of
// the scratch, so steady-state searches allocate nothing.
type bucketQueue struct {
	buckets []minHeap
	bgen    []uint32
	gen     uint32
	cur     int
	n       int
}

// reset opens a new search. The queue keeps its own generation counter,
// so leftover undrained bucket entries from a prior search can never
// masquerade as live whatever the scratch arrays do.
func (q *bucketQueue) reset() {
	q.gen++
	if q.gen == 0 {
		clear(q.bgen)
		q.gen = 1
	}
	q.cur = 0
	q.n = 0
}

func (q *bucketQueue) push(it heapItem) {
	d := deci(it.cost)
	if d < q.cur {
		// A consistent heuristic keeps priorities monotone up to float
		// jitter at a bucket boundary; fold such pushes into the current
		// bucket so the Dial cursor never moves backwards.
		d = q.cur
	}
	for len(q.buckets) <= d {
		q.buckets = append(q.buckets, nil)
		q.bgen = append(q.bgen, 0)
	}
	if q.bgen[d] != q.gen {
		q.bgen[d] = q.gen
		q.buckets[d] = q.buckets[d][:0]
	}
	b := &q.buckets[d]
	b.push(it)
	q.n++
}

// peek advances the cursor to the first live non-empty bucket and
// returns its deci cost, or -1 when the queue is empty.
func (q *bucketQueue) peek() int {
	if q.n == 0 {
		return -1
	}
	for q.bgen[q.cur] != q.gen || len(q.buckets[q.cur]) == 0 {
		q.cur++
	}
	return q.cur
}

func (q *bucketQueue) pop() heapItem {
	q.peek()
	b := &q.buckets[q.cur]
	it := b.pop()
	q.n--
	return it
}
