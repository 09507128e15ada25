package sim

import (
	"testing"
	"testing/quick"
)

func TestClockRoundTrip(t *testing.T) {
	c := Clock{PeriodPs: PsPerGPUCycle}
	if got := c.Cycles(16); got != 16000 {
		t.Fatalf("Cycles(16) = %d, want 16000", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.RunAll()
	for i := 0; i < 100; i++ {
		if order[i] != i {
			t.Fatalf("equal-time events ran out of FIFO order at %d: %v", i, order[:i+1])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(Time)
	tick = func(Time) {
		count++
		if count < 10 {
			e.After(100, tick)
		}
	}
	e.At(0, tick)
	e.RunAll()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 900 {
		t.Fatalf("Now = %d, want 900", e.Now())
	}
}

func TestEngineDeadline(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func(Time) { ran++ })
	e.At(20, func(Time) { ran++ })
	e.At(30, func(Time) { ran++ })
	e.Run(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func(Time) {})
	})
	e.RunAll()
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue reported true")
	}
}

// Property: events always execute in nondecreasing time order regardless of
// insertion order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, d := range delays {
			at := Time(d)
			e.At(at, func(Time) { times = append(times, e.Now()) })
		}
		e.RunAll()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}
