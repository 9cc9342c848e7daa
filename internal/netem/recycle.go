package netem

// Connection objects — TCP endpoints, MPTCP connections and subflows —
// are the bulk of what a short-flow run allocates, and a sweep worker
// builds the same kinds run after run on one Network. A Kind lets the
// package that owns a type keep them: Get hands out an object for the
// current run, the Network remembers every object it handed out, and
// Reset scrubs them all onto the kind's free list for the next run.
// Nothing is recycled mid-run, so whatever a late segment meets is
// exactly what it would meet on a fresh network.

// Kind is one type of object a Network recycles across Reset. Declare
// one per type at package level, with the scrub that readies an object
// for the free list: it drops every pointer into the finished run
// (hosts, routes, callbacks, peers) and keeps only storage the object
// owns — grown slices, its own timers and closures bound to itself.
// Slices handed to anything outside the object are never kept.
type Kind[T any] struct {
	id    int
	scrub func(*T)
}

// kinds counts the declared kinds. NewKind runs during package
// initialisation, which is single-threaded and ends before any
// NewNetwork sizes its free-list table by it.
var kinds int

// NewKind declares a recyclable type with its scrub. Call it only to
// initialise a package-level variable.
func NewKind[T any](scrub func(*T)) *Kind[T] {
	k := &Kind[T]{id: kinds, scrub: scrub}
	kinds++
	return k
}

// recycler is a freeList of any kind, as the Network holds it.
type recycler interface{ recycle() }

// freeList holds one kind's objects on one network: those handed out
// since the last Reset, and the scrubbed ones waiting for the next.
type freeList[T any] struct {
	scrub      func(*T)
	made, free []*T
}

// Get returns an object of kind k for n's current run: one an earlier
// run made, scrubbed by Reset, or a new zero one. The caller runs the
// type's one initializer over it either way. n holds the object until
// its next Reset.
func (k *Kind[T]) Get(n *Network) *T {
	l, _ := n.kinds[k.id].(*freeList[T])
	if l == nil {
		l = &freeList[T]{scrub: k.scrub}
		n.kinds[k.id] = l
	}
	var x *T
	if m := len(l.free); m > 0 {
		x = l.free[m-1]
		l.free[m-1] = nil
		l.free = l.free[:m-1]
	} else {
		x = new(T)
	}
	l.made = append(l.made, x)
	return x
}

// recycle scrubs every object the finished run made onto the free list.
func (l *freeList[T]) recycle() {
	for _, x := range l.made {
		l.scrub(x)
	}
	l.free = append(l.free, l.made...)
	clear(l.made)
	l.made = l.made[:0]
}
