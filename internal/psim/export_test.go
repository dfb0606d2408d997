package psim

// WorkersLeft returns how many times e's spawned workers have left their
// epoch loops, summed over workers.
func WorkersLeft(e *Engine) uint64 {
	var n uint64
	for i := range e.workers {
		n += e.workers[i].left
	}
	return n
}
