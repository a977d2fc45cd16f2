package sim

import "time"

// Queue is an unbounded FIFO message store connecting producer and consumer
// processes. Put never blocks; Get blocks until an item is available. It is
// the kernel-level building block under the simulated Azure queue service
// and the ModisAzure task queues.
type Queue[T any] struct {
	items   fifo[T]
	getters fifo[*getWaiter[T]]
	puts    uint64
	gets    uint64

	// spare recycles actor waiters (each carries a cached delivery
	// closure), so a steady-state GetFlat park allocates nothing.
	spare []*getWaiter[T]
}

// getWaiter parks either a process (p) or a flat actor (a) on the queue.
type getWaiter[T any] struct {
	p        *Proc
	item     T
	released bool
	timedOut bool

	// Actor waiters only: the queue, the continuation the item is handed
	// to, and the cached closure the actor's wake runs to hand it over.
	a       *Actor
	q       *Queue[T]
	then    func(T)
	deliver func()
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Waiting returns the number of blocked consumers.
func (q *Queue[T]) Waiting() int { return q.getters.len() }

// Puts returns the total number of items ever put.
func (q *Queue[T]) Puts() uint64 { return q.puts }

// Gets returns the total number of items ever delivered.
func (q *Queue[T]) Gets() uint64 { return q.gets }

// Put appends an item, waking the longest-waiting consumer if any. It may be
// called from any kernel-context code.
func (q *Queue[T]) Put(item T) {
	q.puts++
	for q.getters.len() > 0 {
		w := q.getters.pop()
		if w.released {
			continue
		}
		w.released = true
		w.item = item
		q.gets++
		if w.a != nil {
			w.a.wakeNow()
		} else {
			w.p.wakeNow()
		}
		return
	}
	q.items.push(item)
}

// TryGet removes and returns the head item without blocking, reporting
// whether one was available.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	q.gets++
	return q.items.pop(), true
}

// check asserts item conservation: everything ever put was either delivered
// or is still buffered. The kill-unwind repath (reputIfKilled, and a killed
// actor's unwindFlat) is the spot this historically guards. Checkf's
// arguments are boxed only for a violation, and only with a harness on.
func (q *Queue[T]) check(e *Engine) {
	if inv := e.inv; inv != nil && q.puts != q.gets+uint64(q.items.len()) {
		inv.Checkf(false, "queue conservation: %d puts != %d gets + %d buffered", q.puts, q.gets, q.items.len())
	}
}

// Get removes and returns the head item, blocking the process until one is
// available. Consumers are served in FIFO order.
func (q *Queue[T]) Get(p *Proc) T {
	p.killCheck()
	q.check(p.eng)
	if item, ok := q.TryGet(); ok {
		return item
	}
	w := &getWaiter[T]{p: p}
	q.getters.push(w)
	defer q.reputIfKilled(w)
	p.suspend(func() { q.removeGetter(w) })
	return w.item
}

// reputIfKilled runs on the unwind path of a killed consumer: if an item had
// already been handed to it but the wakeup was pre-empted by the kill, the
// item goes back to the head of the queue so no message is lost.
func (q *Queue[T]) reputIfKilled(w *getWaiter[T]) {
	if rec := recover(); rec != nil {
		if w.released && !w.timedOut {
			q.reput(w.item)
		}
		panic(rec)
	}
}

// reput puts an item handed to a killed consumer back at the head of the
// queue, undoing the delivery without waking anyone.
func (q *Queue[T]) reput(item T) {
	q.items.pushFront(item)
	q.gets--
}

// GetFlat is the flat-actor Get: with an item buffered, then runs inline
// with it and no event is scheduled, exactly as Get returns without
// suspending; otherwise the actor parks in the same FIFO as blocked
// processes, and the Put that serves it schedules the one wake event that
// runs then(item). then should be a continuation cached by the caller; the
// waiter is recycled, so a steady-state park allocates nothing. Killing the
// parked actor takes it off the queue, and an item already handed to it goes
// back to the head of the queue, as with a killed Get.
func (q *Queue[T]) GetFlat(a *Actor, then func(T)) {
	q.check(a.eng)
	if item, ok := q.TryGet(); ok {
		then(item)
		return
	}
	w := q.flatWaiter()
	w.a, w.then = a, then
	q.getters.push(w)
	a.arm(w.deliver)
	a.park = w
}

// flatWaiter returns a recycled actor waiter, or builds one.
func (q *Queue[T]) flatWaiter() *getWaiter[T] {
	if n := len(q.spare); n > 0 {
		w := q.spare[n-1]
		q.spare[n-1] = nil
		q.spare = q.spare[:n-1]
		return w
	}
	w := &getWaiter[T]{q: q}
	w.deliver = w.handOver
	return w
}

// release clears an actor waiter and returns it to the spare list.
func (w *getWaiter[T]) release() {
	var zero T
	w.a, w.then, w.item, w.released = nil, nil, zero, false
	w.q.spare = append(w.q.spare, w)
}

// handOver is the parked actor's wake: pass the delivered item to the
// continuation.
func (w *getWaiter[T]) handOver() {
	item, then := w.item, w.then
	w.release()
	then(item)
}

func (w *getWaiter[T]) detachFlat(*Actor) {
	if !w.released {
		w.q.removeGetter(w)
	}
}

func (w *getWaiter[T]) unwindFlat(*Actor) {
	if w.released {
		w.q.reput(w.item)
	}
	w.release()
}

// GetTimeout is Get with a deadline: it returns the zero value and false if
// no item arrived within d.
func (q *Queue[T]) GetTimeout(p *Proc, d time.Duration) (T, bool) {
	p.killCheck()
	q.check(p.eng)
	if item, ok := q.TryGet(); ok {
		return item, true
	}
	w := &getWaiter[T]{p: p}
	q.getters.push(w)
	timer := p.eng.After(d, func() {
		if w.released {
			return
		}
		w.released = true
		w.timedOut = true
		q.removeGetter(w)
		w.p.wakeNow()
	})
	// CancelRecycle rather than Cancel: the timer is dead either way (fired
	// or canceled), and this hands the allocation back to the event pool.
	defer p.eng.CancelRecycle(timer)
	defer q.reputIfKilled(w)
	p.suspend(func() { q.removeGetter(w) })
	if w.timedOut {
		var zero T
		return zero, false
	}
	return w.item, true
}

func (q *Queue[T]) removeGetter(w *getWaiter[T]) {
	live := q.getters.live()
	for i, g := range live {
		if g == w {
			q.getters.removeAt(i)
			return
		}
	}
}

// fifo is a slice-backed FIFO that reuses its backing array: a pop advances
// a head index, and a push into a full array whose dead prefix is at least
// half of it slides the live tail down instead of growing, so steady
// push/pop traffic allocates nothing and a queue that never empties does
// not grow without bound.
type fifo[E any] struct {
	buf  []E
	head int
}

func (f *fifo[E]) len() int { return len(f.buf) - f.head }

// live returns the queued elements, head first.
func (f *fifo[E]) live() []E { return f.buf[f.head:] }

func (f *fifo[E]) push(v E) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[E]) pop() E {
	var zero E
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}

// pushFront puts v back at the head.
func (f *fifo[E]) pushFront(v E) {
	if f.head > 0 {
		f.head--
		f.buf[f.head] = v
		return
	}
	var zero E
	f.buf = append(f.buf, zero)
	copy(f.buf[1:], f.buf)
	f.buf[0] = v
}

// removeAt deletes the i'th queued element (0 = head), keeping order.
func (f *fifo[E]) removeAt(i int) {
	var zero E
	i += f.head
	copy(f.buf[i:], f.buf[i+1:])
	f.buf[len(f.buf)-1] = zero
	f.buf = f.buf[:len(f.buf)-1]
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
}
