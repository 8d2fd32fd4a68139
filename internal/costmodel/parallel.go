package costmodel

// WorkerTally is the deterministic accounting core of the parallel
// collection phases. The collector still *executes* its work stream in
// the canonical serial order — heap images are byte-identical at every
// worker count — but each unit of parallel-phase work (a "quantum") is
// bracketed by BeginQuantum/EndQuantum, and its measured cycle delta is
// assigned to the currently least-loaded simulated worker (ties resolved
// by lowest worker rank). That greedy schedule is exactly the idealized
// work-stealing execution: a worker that runs dry immediately steals the
// next quantum from the shared frontier.
//
// When a phase closes, the wall-clock cost of the phase is the maximum
// worker tally and the total cost is the sum; the difference (the cycles
// that ran concurrently with the critical path) is credited back to the
// meter's overlap counter, so pause cycles genuinely shrink with workers
// while the sum-of-workers cost stays fully accounted.
//
// A nil *WorkerTally is the single-worker case: BeginQuantum and
// EndQuantum are no-ops on it, so collectors bracket unconditionally, no
// cycles move, and every trace byte is identical to the pre-parallel
// collector.
type WorkerTally struct {
	meter  *Meter
	cycles []Cycles // per-worker tally within the current phase

	openStack Cycles // meter GCStack at BeginQuantum
	openCopy  Cycles // meter GCCopy at BeginQuantum
	inQuantum bool

	phaseStack Cycles // GCStack charged inside quanta this phase
	phaseCopy  Cycles // GCCopy charged inside quanta this phase

	last   int    // worker assigned the previous quantum (steal detection)
	quanta uint64 // lifetime quantum count
	steals uint64 // lifetime count of quanta claimed by a different worker
}

// NewWorkerTally creates a tally over the given meter for workers ≥ 2
// simulated collector workers. Callers model W=1 as a nil tally.
func NewWorkerTally(meter *Meter, workers int) *WorkerTally {
	if workers < 2 {
		panic("costmodel: WorkerTally needs at least 2 workers; use nil for 1")
	}
	return &WorkerTally{meter: meter, cycles: make([]Cycles, workers)}
}

// Workers returns the simulated worker count.
func (t *WorkerTally) Workers() int { return len(t.cycles) }

// Quanta returns the lifetime number of closed quanta.
func (t *WorkerTally) Quanta() uint64 { return t.quanta }

// Steals returns the lifetime number of quanta that were claimed by a
// different worker than the previous quantum — the simulated steal count
// of the idealized work-stealing schedule.
func (t *WorkerTally) Steals() uint64 { return t.steals }

// BeginQuantum opens a unit of parallel-phase work; all GC cycles
// charged until the matching EndQuantum belong to one worker. It is a
// no-op on a nil tally, and small enough to inline so the serial path
// pays no call.
func (t *WorkerTally) BeginQuantum() {
	if t != nil {
		t.beginQuantum()
	}
}

func (t *WorkerTally) beginQuantum() {
	if t.inQuantum {
		panic("costmodel: nested WorkerTally quantum")
	}
	t.inQuantum = true
	t.openStack = t.meter.Get(GCStack)
	t.openCopy = t.meter.Get(GCCopy)
}

// EndQuantum closes the open quantum and assigns its cycle delta to the
// least-loaded worker (lowest rank on ties) — the deterministic claim
// arbitration of the simulated steal. Like BeginQuantum, it is an
// inlinable no-op on a nil tally.
func (t *WorkerTally) EndQuantum() {
	if t != nil {
		t.endQuantum()
	}
}

func (t *WorkerTally) endQuantum() {
	if !t.inQuantum {
		panic("costmodel: EndQuantum without BeginQuantum")
	}
	t.inQuantum = false
	dStack := t.meter.Get(GCStack) - t.openStack
	dCopy := t.meter.Get(GCCopy) - t.openCopy
	t.phaseStack += dStack
	t.phaseCopy += dCopy
	w := 0
	for i := 1; i < len(t.cycles); i++ {
		if t.cycles[i] < t.cycles[w] {
			w = i
		}
	}
	t.cycles[w] += dStack + dCopy
	t.quanta++
	if w != t.last {
		t.steals++
		t.last = w
	}
}

// ChargeSplit charges total cycles to component c as one quantum per
// worker (remainder cycles go to the lowest ranks), so fixed
// per-collection overheads shrink with workers on the wall clock while
// the charged total is preserved exactly at every worker count.
func (t *WorkerTally) ChargeSplit(c Component, total Cycles) {
	w := Cycles(len(t.cycles))
	base, rem := total/w, total%w
	for i := Cycles(0); i < w; i++ {
		n := base
		if i < rem {
			n++
		}
		if n == 0 {
			continue
		}
		t.beginQuantum()
		t.meter.Charge(c, n)
		t.endQuantum()
	}
}

// ClosePhase ends the current parallel phase: the cycles hidden behind
// the critical path (sum of workers minus max) are credited back to the
// meter's overlap counter, and the per-worker tallies are returned for
// trace emission. The returned slice is freshly allocated; the tally is
// reset for the next phase. Callers must invoke ClosePhase before the
// phase-end trace snapshot so the phase's wall-clock GC delta equals
// exactly the maximum worker tally.
func (t *WorkerTally) ClosePhase() []Cycles {
	if t.inQuantum {
		panic("costmodel: ClosePhase with open quantum")
	}
	out := make([]Cycles, len(t.cycles))
	copy(out, t.cycles)
	var sum, max Cycles
	for _, c := range t.cycles {
		sum += c
		if c > max {
			max = c
		}
	}
	overlap := sum - max
	if overlap > 0 {
		fromCopy := overlap
		if fromCopy > t.phaseCopy {
			fromCopy = t.phaseCopy
		}
		t.meter.creditOverlap(overlap-fromCopy, fromCopy)
	}
	for i := range t.cycles {
		t.cycles[i] = 0
	}
	t.phaseStack, t.phaseCopy = 0, 0
	return out
}
