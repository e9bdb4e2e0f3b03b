package disk

import (
	"testing"

	"repro/internal/sim"
)

func elevatorParams() Params {
	p := testParams()
	p.Elevator = true
	return p
}

func TestElevatorServesNearestUpward(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, elevatorParams())
	var order []Slot
	rec := func(start Slot) func(sim.Duration) {
		return func(sim.Duration) { order = append(order, start) }
	}
	// First request positions the head at 100+1=101 and occupies the disk;
	// the rest queue and must be served in SCAN order from 101.
	d.Submit(&Request{Run: Run{Start: 100, N: 1}, Done: rec(100)})
	d.Submit(&Request{Run: Run{Start: 5000, N: 1}, Done: rec(5000)})
	d.Submit(&Request{Run: Run{Start: 200, N: 1}, Done: rec(200)})
	d.Submit(&Request{Run: Run{Start: 50, N: 1}, Done: rec(50)})
	d.Submit(&Request{Run: Run{Start: 900, N: 1}, Done: rec(900)})
	eng.Run()
	want := []Slot{100, 200, 900, 5000, 50} // upward sweep, then below
	if len(order) != len(want) {
		t.Fatalf("served %d", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestElevatorCheaperThanFIFOOnScatteredLoad(t *testing.T) {
	run := func(p Params) sim.Time {
		eng := sim.NewEngine(1)
		d := New(eng, p)
		// Scattered single-page reads submitted in a worst-case zig-zag.
		for i := 0; i < 64; i++ {
			slot := Slot(i * 997 % 64 * 1000)
			d.Submit(&Request{Run: Run{Start: slot, N: 1}})
		}
		eng.Run()
		return eng.Now()
	}
	fifoP := PositionalParams() // positional model so distance matters
	elevP := fifoP
	elevP.Elevator = true
	fifo := run(fifoP)
	elev := run(elevP)
	if elev >= fifo {
		t.Fatalf("elevator (%v) not cheaper than FIFO (%v) under the positional model", elev, fifo)
	}
}

func TestElevatorBinaryModelOrderStillValid(t *testing.T) {
	// Under the binary model SCAN cannot change total cost, but service
	// must remain complete and deterministic.
	eng := sim.NewEngine(1)
	d := New(eng, elevatorParams())
	n := 0
	for i := 0; i < 20; i++ {
		d.Submit(&Request{Run: Run{Start: Slot((i * 7) % 20 * 50), N: 1},
			Done: func(sim.Duration) { n++ }})
	}
	eng.Run()
	if n != 20 {
		t.Fatalf("served %d of 20", n)
	}
	if d.QueueLen() != 0 || d.Busy() {
		t.Fatal("queue not drained")
	}
}
