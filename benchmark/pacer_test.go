package main

import (
	"slices"
	"testing"
	"time"
)

// An open-loop generator must not slow down when the system does: with a
// sink that blocks once for 200 ms, every row keeps the due time of the
// original schedule, the rows that fell due during the stall carry it in
// their latency, the run still ends on time, and the stall shows in the
// generator's own lateness.
func TestPacerKeepsScheduleThroughStall(t *testing.T) {
	const (
		rate  = 10_000
		rows  = rate // one second of input
		stall = 200 * time.Millisecond
	)
	due := schedule(rows, rate)
	planned := append([]int64(nil), due...)
	arrival := make([]int64, rows)
	stalledAt := -1

	start := time.Now()
	late, err := pace(start, due, pacerTick, func(from, to int) error {
		if stalledAt < 0 && from >= rows/2 {
			stalledAt = from
			time.Sleep(stall)
		}
		now := time.Since(start).Nanoseconds()
		for i := from; i < to; i++ {
			arrival[i] = now
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i := range due {
		if due[i] != planned[i] {
			t.Fatalf("due time of row %d moved from %d to %d", i, planned[i], due[i])
		}
	}
	latency := func(row int) time.Duration { return time.Duration(arrival[row] - due[row]) }

	if got := latency(stalledAt); got < stall {
		t.Errorf("first row behind the stall has latency %v, want at least %v", got, stall)
	}
	// A row that fell due halfway through the stall waited for the rest of it.
	if got := latency(stalledAt + rate/10); got < stall/2-10*time.Millisecond {
		t.Errorf("row due mid-stall has latency %v, want about %v", got, stall/2)
	}
	// Rows due well after the stall are back on schedule.
	if got := latency(stalledAt + 4*rate/10); got > 50*time.Millisecond {
		t.Errorf("row due 200 ms after the stall has latency %v: the generator did not catch up", got)
	}
	if elapsed > 1100*time.Millisecond+stall/2 {
		t.Errorf("one second of input took %v: the generator slowed down with its sink", elapsed)
	}
	slices.Sort(late)
	if got := time.Duration(quantile(late, 0.99)); got < stall*3/4 {
		t.Errorf("generator lateness p99 is %v, want the %v stall to show", got, stall)
	}
}
