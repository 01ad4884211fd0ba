package stream

// Journal is an append-only, duplicate-free purchase log: the set of
// everything bought plus the order it was bought in. Algorithms that
// keep their purchases in one report each new purchase to their adapter
// in O(new) through a Cursor over Since, instead of the adapter
// rebuilding and diffing the whole set on every decision. The zero value
// is an empty journal.
type Journal[T comparable] struct {
	has map[T]struct{}
	log []T
}

// Add records x if it is new and reports whether it was.
func (j *Journal[T]) Add(x T) bool {
	if _, ok := j.has[x]; ok {
		return false
	}
	if j.has == nil {
		j.has = make(map[T]struct{})
	}
	j.has[x] = struct{}{}
	j.log = append(j.log, x)
	return true
}

// Has reports whether x was recorded.
func (j *Journal[T]) Has(x T) bool {
	_, ok := j.has[x]
	return ok
}

// Len returns the number of distinct entries recorded.
func (j *Journal[T]) Len() int { return len(j.log) }

// Since returns the entries recorded after the first n, in record order.
// The slice aliases the journal; callers must not mutate it.
func (j *Journal[T]) Since(n int) []T { return j.log[n:] }

// Cursor reads an append-only log — a Journal, or a store's BoughtSince
// — exactly once per entry: each Next returns what was appended since
// the previous call. It is the one decision diff every adapter uses.
type Cursor[T any] struct {
	since func(n int) []T
	n     int
}

// NewCursor returns a cursor at the start of the log that since reads.
func NewCursor[T any](since func(n int) []T) Cursor[T] {
	return Cursor[T]{since: since}
}

// Next returns the entries appended since the last call and advances
// past them. The slice aliases the log; callers must not mutate it.
func (c *Cursor[T]) Next() []T {
	news := c.since(c.n)
	c.n += len(news)
	return news
}
