package main

import "time"

// pacerTick is how often the open-loop producer wakes.
const pacerTick = time.Millisecond

// schedule returns the due time of each of n rows sent at rate rows/s, in
// nanoseconds after the start of the rung.
func schedule(n, rate int) []int64 {
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(float64(i) * 1e9 / float64(rate))
	}
	return due
}

// pace is the open-loop generator. It wakes at every tick after start and
// hands send all rows [from, to) that have fallen due since the last wake.
// The schedule never moves: when send stalls, the ticks missed meanwhile are
// worked off at once, each recorded with how late it ran, and the rows
// behind the stall keep their original due times — so a slow system sees no
// less load and its delay shows in the latency of those rows.
//
// It returns each tick's lateness in nanoseconds.
func pace(start time.Time, due []int64, tick time.Duration, send func(from, to int) error) ([]int64, error) {
	late := make([]int64, 0, due[len(due)-1]/int64(tick)+2)
	sent := 0
	for k := int64(1); sent < len(due); k++ {
		at := k * int64(tick)
		now := time.Since(start).Nanoseconds()
		if now < at {
			time.Sleep(time.Duration(at - now))
			now = time.Since(start).Nanoseconds()
		}
		late = append(late, now-at)
		to := sent
		for to < len(due) && due[to] <= now {
			to++
		}
		if to > sent {
			if err := send(sent, to); err != nil {
				return late, err
			}
			sent = to
		}
	}
	return late, nil
}
