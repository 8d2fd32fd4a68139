package rt

import (
	"fmt"

	"tilgc/internal/costmodel"
)

// Thread is one simulated mutator thread: its own stack — and therefore
// its own frames, registers, handlers, and stack markers — plus, under
// an SSB-barrier collector, a private sequential store buffer. (A
// card-barrier collector's threads all record straight into the shared
// card table.) Threads are cooperative and deterministic: exactly one
// runs at a time, and the scheduler (the workload or the fuzz
// interpreter) switches between them at explicit points. A
// single-thread program is thread 0 alone.
type Thread struct {
	id    int
	stack *Stack
	dead  bool
	ssb   *SSB // set by an SSB-barrier collector
}

// ID returns the thread's id (0 is the primary thread).
func (t *Thread) ID() int { return t.id }

// Stack returns the thread's stack.
func (t *Thread) Stack() *Stack { return t.stack }

// Dead reports whether the thread has been joined. A dead thread's stack
// is no longer a root source, but its barrier state is still drained at
// the next collection: stores it made before joining are real pointer
// updates.
func (t *Thread) Dead() bool { return t.dead }

// SSB returns the thread's store buffer (nil unless an SSB-barrier
// collector equipped the thread with one).
func (t *Thread) SSB() *SSB { return t.ssb }

// SetSSB assigns the thread's store buffer.
func (t *Thread) SetSSB(b *SSB) { t.ssb = b }

// ThreadSet owns the simulated threads of one run. Each collector
// creates its own around the primary stack (thread 0); one whose threads
// carry barrier state registers an OnSpawn hook to equip later threads.
type ThreadSet struct {
	meter   *costmodel.Meter
	table   *TraceTable
	threads []*Thread
	cur     *Thread
	onSpawn func(*Thread)
}

// NewThreadSet wraps the primary stack as thread 0 of a new set. Spawned
// threads get fresh stacks over the same trace table and meter.
func NewThreadSet(primary *Stack, meter *costmodel.Meter) *ThreadSet {
	t0 := &Thread{id: 0, stack: primary}
	return &ThreadSet{meter: meter, table: primary.Table(), threads: []*Thread{t0}, cur: t0}
}

// OnSpawn registers the collector's hook for equipping newly spawned
// threads with barrier state. It fires for future spawns only; the
// caller equips the already-existing threads itself.
func (ts *ThreadSet) OnSpawn(fn func(*Thread)) { ts.onSpawn = fn }

// Spawn creates a new live thread with an empty stack and makes it known
// to the owning collector. The new thread is NOT made current.
func (ts *ThreadSet) Spawn() *Thread {
	t := &Thread{id: len(ts.threads), stack: NewStack(ts.table, ts.meter)}
	ts.threads = append(ts.threads, t)
	if ts.onSpawn != nil {
		ts.onSpawn(t)
	}
	return t
}

// Len returns the number of threads ever created (including dead ones).
func (ts *ThreadSet) Len() int { return len(ts.threads) }

// Thread returns the thread with the given id.
func (ts *ThreadSet) Thread(id int) *Thread {
	if id < 0 || id >= len(ts.threads) {
		panic(fmt.Sprintf("rt: no thread %d (have %d)", id, len(ts.threads)))
	}
	return ts.threads[id]
}

// Threads returns all threads in id order, dead ones included. Callers
// scanning roots skip the dead; callers draining barriers do not.
func (ts *ThreadSet) Threads() []*Thread { return ts.threads }

// Current returns the running thread.
func (ts *ThreadSet) Current() *Thread { return ts.cur }

// SetCurrent switches execution to the thread with the given id.
// Switching to a dead thread panics: the scheduler owns liveness.
func (ts *ThreadSet) SetCurrent(id int) *Thread {
	t := ts.Thread(id)
	if t.dead {
		panic(fmt.Sprintf("rt: switch to joined thread %d", id))
	}
	ts.cur = t
	return t
}

// Join marks the thread with the given id dead. The primary thread and
// the current thread cannot be joined — the scheduler must switch away
// first — so there is always a live thread to run on.
func (ts *ThreadSet) Join(id int) {
	t := ts.Thread(id)
	if id == 0 {
		panic("rt: join of the primary thread")
	}
	if t == ts.cur {
		panic(fmt.Sprintf("rt: thread %d joining itself", id))
	}
	t.dead = true
}
