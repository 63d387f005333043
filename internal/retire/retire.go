// Package retire is the one horizon-retention mechanism of the payload
// store, the tail's decided-descriptor set and both engines' instance
// maps. A Queue records what was stamped at each consensus instance, in
// instance order, so retiring everything at or below a cutoff costs what it
// retires, not a sweep of everything resident. The owner keeps its own
// index; a popped record only says where to look, and the owner re-checks
// its rule (still present, still stamped at or below the cutoff, decided)
// before deleting — which leaves re-stamped and re-created entries exactly
// where a full sweep would.
package retire

// Queue holds (instance, value) records ordered by instance. The zero
// value is an empty queue. Like its owners it is single-threaded.
type Queue[T any] struct {
	recs []rec[T]
}

type rec[T any] struct {
	k uint64
	v T
}

// Len returns the number of queued records.
func (q *Queue[T]) Len() int { return len(q.recs) }

// Push records v as stamped at instance k. Instances commit in
// near-monotone order (pipelined decisions land a few slots apart): the
// record is appended, then moved forward past the few later ones.
func (q *Queue[T]) Push(k uint64, v T) {
	q.recs = append(q.recs, rec[T]{k, v})
	for i := len(q.recs) - 1; i > 0 && q.recs[i-1].k > k; i-- {
		q.recs[i-1], q.recs[i] = q.recs[i], q.recs[i-1]
	}
}

// Pop removes and returns the oldest record if its instance is at or
// below cutoff; callers loop until ok is false. Append's next reallocation
// copies only the live records, so popped slots do not accumulate.
func (q *Queue[T]) Pop(cutoff uint64) (v T, ok bool) {
	if len(q.recs) == 0 || q.recs[0].k > cutoff {
		return v, false
	}
	v = q.recs[0].v
	q.recs = q.recs[1:]
	return v, true
}
