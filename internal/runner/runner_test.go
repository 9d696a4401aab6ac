package runner

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roborebound/internal/obs/perf"
)

// recoverPanic runs f and returns the value it panicked with (nil if
// it returned normally).
func recoverPanic(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

func TestMapStableOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got := All(workers, 50, func(i int) int {
			// Finish later cells faster to provoke out-of-order
			// completion; results must still land by index.
			time.Sleep(time.Duration(50-i) * 10 * time.Microsecond)
			return i * i
		})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSerialAndParallelIdentical(t *testing.T) {
	fn := func(i int) string { return fmt.Sprintf("cell-%d", i*7%13) }
	serial := All(1, 40, fn)
	parallel := All(6, 40, fn)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("results diverge at %d: %q vs %q", i, serial[i], parallel[i])
		}
	}
}

func TestWorkerBound(t *testing.T) {
	var active, peak atomic.Int32
	All(3, 64, func(i int) struct{} {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		active.Add(-1)
		return struct{}{}
	})
	if got := peak.Load(); got > 3 {
		t.Errorf("observed %d concurrent cells, want ≤ 3", got)
	}
}

// TestLowestIndexPanicWins: cell 15 panics first, cell 5 later; the
// re-raised panic is cell 5's, as a serial loop would hit it, and
// every other cell still ran.
func TestLowestIndexPanicWins(t *testing.T) {
	var ran [20]atomic.Bool
	fifteenDone := make(chan struct{})
	r := recoverPanic(func() {
		All(8, 20, func(i int) int {
			ran[i].Store(true)
			switch i {
			case 15:
				close(fifteenDone)
				panic("cell fifteen")
			case 5:
				<-fifteenDone
				time.Sleep(2 * time.Millisecond)
				panic("cell five")
			}
			return i
		})
	})
	msg := fmt.Sprint(r)
	if !strings.Contains(msg, "cell five") || strings.Contains(msg, "cell fifteen") {
		t.Fatalf("re-raised %q, want the lowest failing index 5", msg)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("cell %d never ran", i)
		}
	}
}

func TestPanicCaptured(t *testing.T) {
	var survivor atomic.Int64
	r := recoverPanic(func() {
		All(4, 10, func(i int) int {
			if i == 3 {
				panic("cell exploded")
			}
			if i == 9 {
				survivor.Store(9)
			}
			return i
		})
	})
	msg := fmt.Sprint(r)
	if !strings.Contains(msg, "cell exploded") {
		t.Fatalf("panic value %q does not carry the cell's message", msg)
	}
	if !strings.Contains(msg, "goroutine") {
		t.Errorf("panic stack not captured: %q", msg)
	}
	// Healthy cells still completed.
	if survivor.Load() != 9 {
		t.Error("surviving cell lost")
	}
}

func TestAllRepanicsOnCallerGoroutine(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("All swallowed the cell panic")
		}
		if !strings.Contains(fmt.Sprint(r), "kaboom") {
			t.Fatalf("panic value %v does not carry the cell's message", r)
		}
	}()
	All(4, 8, func(i int) int {
		if i == 6 {
			panic("kaboom")
		}
		return i
	})
}

func TestOnDoneSerializedAndComplete(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]time.Duration)
	inCallback := false
	AllOpts(Options{
		Workers: 8,
		OnDone: func(i int, elapsed time.Duration) {
			// The runner serializes OnDone; this re-entrancy check
			// fails (under -race or by flag) if it ever overlaps.
			mu.Lock()
			if inCallback {
				t.Error("OnDone invoked concurrently")
			}
			inCallback = true
			seen[i] = elapsed
			inCallback = false
			mu.Unlock()
		},
	}, 30, func(i int) int {
		time.Sleep(50 * time.Microsecond)
		return i
	})
	if len(seen) != 30 {
		t.Fatalf("OnDone fired %d times, want 30", len(seen))
	}
	for i, d := range seen {
		if d <= 0 {
			t.Errorf("cell %d reported non-positive duration %v", i, d)
		}
	}
}

func TestWorkerCountResolution(t *testing.T) {
	cases := []struct {
		workers, n, wantMax int
	}{
		{0, 10, 10}, // GOMAXPROCS-capped, never above n
		{5, 3, 3},   // never more workers than cells
		{-2, 4, 4},
		{1, 100, 1},
	}
	for _, c := range cases {
		got := Options{Workers: c.workers}.WorkerCount(c.n)
		if got < 1 || got > c.wantMax {
			t.Errorf("WorkerCount(workers=%d, n=%d) = %d, want 1..%d",
				c.workers, c.n, got, c.wantMax)
		}
	}
}

func TestZeroCells(t *testing.T) {
	got := AllOpts(Options{}, 0, func(i int) int { return 0 })
	if len(got) != 0 {
		t.Fatalf("empty sweep: %v", got)
	}
}

// meterClock returns a deterministic monotonic fake clock for sweep
// meters: every read advances it by step.
func meterClock(step int64) perf.Clock {
	var cur atomic.Int64
	return func() int64 { return cur.Add(step) }
}

func TestMapMeterCountsCells(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := perf.NewSweepMeter(meterClock(7))
		AllOpts(Options{Workers: workers, Meter: m}, 10, func(i int) int { return i })
		r := m.Report()
		if r.Cells != 10 {
			t.Fatalf("workers=%d: meter saw %d cells, want 10", workers, r.Cells)
		}
		if r.Workers != (Options{Workers: workers}).WorkerCount(10) {
			t.Fatalf("workers=%d: meter workers = %d", workers, r.Workers)
		}
		if r.WallNs <= 0 || r.BusyNs <= 0 {
			t.Fatalf("workers=%d: empty telemetry %+v", workers, r)
		}
	}
}

func TestMapMeterCountsPanickedCells(t *testing.T) {
	// A panicking cell still ran, so its elapsed time is telemetry;
	// the panic must still surface on the caller.
	m := perf.NewSweepMeter(meterClock(5))
	r := recoverPanic(func() {
		AllOpts(Options{Workers: 1, Meter: m}, 3, func(i int) int {
			if i == 1 {
				panic("boom")
			}
			return i
		})
	})
	if !strings.Contains(fmt.Sprint(r), "boom") {
		t.Fatalf("panic not surfaced: %v", r)
	}
	if r := m.Report(); r.Cells != 3 {
		t.Fatalf("meter saw %d cells, want 3 (panicked cell included)", r.Cells)
	}
}

func TestMapMeterElapsedFeedsOnDone(t *testing.T) {
	// With a meter attached, OnDone's elapsed comes from the meter's
	// clock — each cell spans exactly one step of the fake clock.
	m := perf.NewSweepMeter(meterClock(11))
	var elapsed []time.Duration
	AllOpts(Options{
		Workers: 1,
		Meter:   m,
		OnDone:  func(_ int, e time.Duration) { elapsed = append(elapsed, e) },
	}, 4, func(i int) int { return i })
	if len(elapsed) != 4 {
		t.Fatalf("OnDone ran %d times, want 4", len(elapsed))
	}
	for i, e := range elapsed {
		if e != 11 {
			t.Fatalf("elapsed[%d] = %d, want 11 (one fake-clock step)", i, e)
		}
	}
}
