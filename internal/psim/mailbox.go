package psim

// Mailbox is one LP's outgoing cross-LP message buffer: a growable FIFO
// ring of (cycle, value) entries, appended by the owning LP during an
// epoch and drained by the merge at the barrier. One mailbox per source
// LP, with the destination carried inside T, is the flattened form of a
// per-(source, destination) mailbox matrix: entries for one destination
// appear in send order because the whole ring is in send order.
//
// Only the owning LP pushes, and only the merge drains — on the goroutine
// that called Engine.Run, while every other worker is parked — so the
// mailbox needs no internal synchronization: the epoch barrier is the
// synchronization.
//
//stash:tileowned
type Mailbox[T any] struct {
	buf  []entry[T]
	head int
	n    int
}

// entry keys are plain uint64 cycles rather than sim.Cycle so the generic
// container does not force the sim dependency on non-engine users.
type entry[T any] struct {
	at uint64 // send cycle; nondecreasing within one epoch's pushes
	v  T
}

// Push appends v, sent at cycle at. Sends within an epoch happen in the
// source LP's execution order, so at is nondecreasing between drains —
// Drain relies on that to merge by scanning only ring heads.
//
//stash:hotpath
func (m *Mailbox[T]) Push(at uint64, v T) {
	if m.n == len(m.buf) {
		m.grow()
	}
	m.buf[(m.head+m.n)&(len(m.buf)-1)] = entry[T]{at: at, v: v}
	m.n++
}

// Len returns the number of buffered entries.
func (m *Mailbox[T]) Len() int { return m.n }

func (m *Mailbox[T]) grow() {
	newCap := 2 * len(m.buf)
	if newCap == 0 {
		newCap = 16
	}
	buf := make([]entry[T], newCap)
	for i := 0; i < m.n; i++ {
		buf[i] = m.buf[(m.head+i)&(len(m.buf)-1)]
	}
	m.buf = buf
	m.head = 0
}

// pop removes the oldest entry; precondition n > 0. The slot is left
// stale, like a released sim event slot: it is overwritten on reuse.
//
//stash:hotpath
func (m *Mailbox[T]) pop() entry[T] {
	e := m.buf[m.head]
	m.head = (m.head + 1) & (len(m.buf) - 1)
	m.n--
	return e
}

// Drain empties the mailboxes in the canonical cross-LP merge order —
// (cycle, source rank, send order) — invoking visit for each entry. Each
// ring is already sorted by cycle (sends follow the source's clock), so a
// k-way head scan suffices; ties on cycle resolve to the lowest source
// rank, and entries from one source preserve ring (send) order. This is
// the merge front of the epoch protocol: it runs single-threaded on the
// goroutine that called Engine.Run with every other worker parked, and its
// order is a pure function of the epoch's sends, never of the shard
// layout.
//
//stash:hotpath
func Drain[T any](boxes []*Mailbox[T], visit func(src int, at uint64, v T)) {
	for {
		best := -1
		var bt uint64
		for i, b := range boxes {
			if b.n == 0 {
				continue
			}
			if at := b.buf[b.head].at; best < 0 || at < bt {
				best, bt = i, at
			}
		}
		if best < 0 {
			return
		}
		e := boxes[best].pop()
		visit(best, e.at, e.v)
	}
}
