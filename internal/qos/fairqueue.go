package qos

// FairQueue holds queued items in per-tenant, per-class FIFO lanes and
// dequeues with weighted round-robin across tenants within a class, so
// one tenant's backlog cannot head-of-line-block the others. Class
// preference (shorts before longs, capacity caps) is the caller's
// policy: Pop takes the class to draw from.
//
// The zero tenant weight means "use the default weight" (1). A tenant
// with weight w gets up to w consecutive dequeues per round-robin turn.
//
// FairQueue is not goroutine-safe; the owning scheduler serializes
// access under its own lock.
type FairQueue[T any] struct {
	weights       map[string]int
	defaultWeight int
	classes       [NumClasses]*classLanes[T]
	size          int
}

// classLanes is one class's set of per-tenant FIFO lanes plus the
// round-robin cursor state.
type classLanes[T any] struct {
	// tenants is the rotation order: tenants appear once, in first-push
	// order, and stay (the tenant set is small and bounded upstream).
	tenants []string
	lanes   map[string][]T
	// rr indexes tenants at the tenant whose turn it is; credit is how
	// many consecutive dequeues that tenant has left this turn.
	rr     int
	credit int
}

// NewFairQueue builds a fair queue with the given per-tenant weights
// (nil for all-equal). Weights < 1 are treated as 1.
func NewFairQueue[T any](weights map[string]int) *FairQueue[T] {
	fq := &FairQueue[T]{weights: weights, defaultWeight: 1}
	for i := range fq.classes {
		fq.classes[i] = &classLanes[T]{lanes: make(map[string][]T)}
	}
	return fq
}

// weight returns tenant's configured dequeue weight, at least 1.
func (fq *FairQueue[T]) weight(tenant string) int {
	if w, ok := fq.weights[tenant]; ok && w >= 1 {
		return w
	}
	return fq.defaultWeight
}

// Push appends item to tenant's lane for class.
func (fq *FairQueue[T]) Push(tenant string, class Class, item T) {
	cl := fq.classes[class]
	if _, ok := cl.lanes[tenant]; !ok {
		cl.tenants = append(cl.tenants, tenant)
	}
	cl.lanes[tenant] = append(cl.lanes[tenant], item)
	fq.size++
}

// Pop removes and returns the next item of class under weighted
// round-robin, or false if the class has nothing queued.
func (fq *FairQueue[T]) Pop(class Class) (T, bool) {
	var zero T
	cl := fq.classes[class]
	if len(cl.tenants) == 0 {
		return zero, false
	}
	// Scan at most one full rotation for a non-empty lane, starting at
	// the cursor. Empty lanes forfeit their turn.
	for scanned := 0; scanned < len(cl.tenants); scanned++ {
		t := cl.tenants[cl.rr]
		lane := cl.lanes[t]
		if len(lane) == 0 {
			cl.advance()
			continue
		}
		if cl.credit <= 0 {
			cl.credit = fq.weight(t)
		}
		item := lane[0]
		lane[0] = zero // drop the lane's reference to the popped item
		cl.lanes[t] = lane[1:]
		fq.size--
		cl.credit--
		if cl.credit <= 0 || len(cl.lanes[t]) == 0 {
			cl.advance()
		}
		return item, true
	}
	return zero, false
}

// advance moves the cursor to the next tenant and resets its credit.
func (cl *classLanes[T]) advance() {
	cl.rr = (cl.rr + 1) % len(cl.tenants)
	cl.credit = 0
}

// Len returns the total number of queued items across classes.
func (fq *FairQueue[T]) Len() int { return fq.size }

// LenClass returns the number of queued items in class.
func (fq *FairQueue[T]) LenClass(class Class) int {
	cl := fq.classes[class]
	n := 0
	for _, t := range cl.tenants {
		n += len(cl.lanes[t])
	}
	return n
}

// Heads calls fn with the head item of every non-empty lane (both
// classes), in rotation order. Used to compute the oldest head-of-line
// wait for brownout admission.
func (fq *FairQueue[T]) Heads(fn func(item T)) {
	for _, cl := range fq.classes {
		for _, t := range cl.tenants {
			if lane := cl.lanes[t]; len(lane) > 0 {
				fn(lane[0])
			}
		}
	}
}

// Drain removes and returns every queued item, shorts first, each class
// in rotation order. The queue is empty afterwards.
func (fq *FairQueue[T]) Drain() []T {
	out := make([]T, 0, fq.size)
	for _, cl := range fq.classes {
		for _, t := range cl.tenants {
			out = append(out, cl.lanes[t]...)
			delete(cl.lanes, t)
		}
		cl.tenants = cl.tenants[:0]
		cl.rr, cl.credit = 0, 0
	}
	fq.size = 0
	return out
}
