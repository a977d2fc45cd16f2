package sim

import (
	"reflect"
	"testing"
	"time"
)

func TestQueuePutThenGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var got []int
	e.Spawn("c", func(p *Proc) {
		got = append(got, q.Get(p))
		got = append(got, q.Get(p))
	})
	e.Schedule(0, func() { q.Put(1); q.Put(2) })
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got = %v, want [1 2]", got)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string]()
	var at time.Duration
	var item string
	e.Spawn("c", func(p *Proc) {
		item = q.Get(p)
		at = p.Now()
	})
	e.Schedule(7*time.Second, func() { q.Put("late") })
	e.Run()
	if item != "late" || at != 7*time.Second {
		t.Fatalf("got %q at %v, want \"late\" at 7s", item, at)
	}
}

func TestQueueConsumersFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var got []struct{ consumer, item int }
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("c", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			v := q.Get(p)
			got = append(got, struct{ consumer, item int }{i, v})
		})
	}
	e.Schedule(time.Second, func() {
		q.Put(100)
		q.Put(101)
		q.Put(102)
	})
	e.Run()
	for i, g := range got {
		if g.consumer != i || g.item != 100+i {
			t.Fatalf("delivery %d = %+v, want consumer %d item %d", i, g, i, 100+i)
		}
	}
}

func TestQueueTryGet(t *testing.T) {
	q := NewQueue[int]()
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.Put(5)
	v, ok := q.TryGet()
	if !ok || v != 5 {
		t.Fatalf("TryGet = %d,%v want 5,true", v, ok)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var okFirst, okSecond bool
	var at time.Duration
	e.Spawn("c", func(p *Proc) {
		_, okFirst = q.GetTimeout(p, 2*time.Second)
		at = p.Now()
		var v int
		v, okSecond = q.GetTimeout(p, 10*time.Second)
		if v != 9 {
			t.Errorf("second GetTimeout item = %d, want 9", v)
		}
	})
	e.Schedule(5*time.Second, func() { q.Put(9) })
	e.Run()
	if okFirst {
		t.Fatal("first GetTimeout should have timed out")
	}
	if at != 2*time.Second {
		t.Fatalf("timeout returned at %v, want 2s", at)
	}
	if !okSecond {
		t.Fatal("second GetTimeout should have received the item")
	}
	if q.Waiting() != 0 {
		t.Fatalf("Waiting = %d, want 0", q.Waiting())
	}
}

func TestQueueKilledConsumerRequeuesItem(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	victim := e.Spawn("victim", func(p *Proc) {
		q.Get(p)
		t.Error("victim received item despite kill")
	})
	// Put and kill in the same instant: Put hands the item to the victim,
	// then the kill pre-empts the wakeup. The item must survive.
	e.Schedule(time.Second, func() {
		q.Put(42)
		victim.Kill()
	})
	var rescued int
	e.Spawn("rescuer", func(p *Proc) {
		p.Sleep(2 * time.Second)
		rescued = q.Get(p)
	})
	e.Run()
	if rescued != 42 {
		t.Fatalf("rescued = %d, want 42 (item lost on kill)", rescued)
	}
}

func TestQueueKilledWaiterRemoved(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	victim := e.Spawn("victim", func(p *Proc) { q.Get(p) })
	e.Schedule(time.Second, func() { victim.Kill() })
	var got int
	e.Spawn("other", func(p *Proc) {
		p.Sleep(2 * time.Second)
		got = q.Get(p)
	})
	e.Schedule(3*time.Second, func() { q.Put(7) })
	e.Run()
	if got != 7 {
		t.Fatalf("other consumer got %d, want 7", got)
	}
	if !e.Drained() {
		t.Fatal("engine not drained")
	}
}

func TestQueueCounters(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	e.Spawn("c", func(p *Proc) {
		q.Get(p)
		q.Get(p)
	})
	e.Schedule(0, func() { q.Put(1); q.Put(2); q.Put(3) })
	e.Run()
	if q.Puts() != 3 || q.Gets() != 2 || q.Len() != 1 {
		t.Fatalf("Puts=%d Gets=%d Len=%d, want 3,2,1", q.Puts(), q.Gets(), q.Len())
	}
}

// TestFifoMatchesSlice drives the queue's backing FIFO through a random mix
// of push, pop, pushFront and removeAt against a plain slice model, and
// checks that steady push/pop traffic stops growing the backing array.
func TestFifoMatchesSlice(t *testing.T) {
	var f fifo[int]
	var model []int
	r := uint64(1)
	next := func(n int) int {
		r = r*6364136223846793005 + 1442695040888963407
		return int((r >> 33) % uint64(n))
	}
	for i := 0; i < 20000; i++ {
		switch op := next(10); {
		case op < 4:
			f.push(i)
			model = append(model, i)
		case op < 8 && len(model) > 0:
			if got := f.pop(); got != model[0] {
				t.Fatalf("step %d: pop %d, want %d", i, got, model[0])
			}
			model = model[1:]
		case op == 8:
			f.pushFront(-i)
			model = append([]int{-i}, model...)
		case op == 9 && len(model) > 0:
			j := next(len(model))
			f.removeAt(j)
			model = append(model[:j:j], model[j+1:]...)
		}
		if f.len() != len(model) || (len(model) > 0 && !reflect.DeepEqual(f.live(), model)) {
			t.Fatalf("step %d: fifo %v, model %v", i, f.live(), model)
		}
	}
	f = fifo[int]{}
	for i := 0; i < 8; i++ {
		f.push(i)
	}
	for i := 0; i < 100; i++ { // warm-up: at most one growth
		f.push(i)
		f.pop()
	}
	c := cap(f.buf)
	for i := 0; i < 10000; i++ {
		f.push(i)
		f.pop()
	}
	if cap(f.buf) != c || c > 16 {
		t.Fatalf("steady push/pop grew the backing array: cap %d -> %d", c, cap(f.buf))
	}
}
