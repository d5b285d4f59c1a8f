package main

import (
	"strings"
	"testing"
)

// referenceRows is the output the reference expects for rows [0, n) of d, in
// the []any form Codec.DecodeRow hands the checker.
func referenceRows(d *dataset) [][]any {
	var rows [][]any
	want := make([]int64, d.w.cols)
	for seq := 0; seq < d.n; seq++ {
		if !d.w.expect(d, seq, want) {
			continue
		}
		row := make([]any, len(want))
		for i, v := range want {
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows
}

func failedOn(d *dataset, rows [][]any) int {
	chk := newChecker(d, 0, d.n)
	for _, row := range rows {
		chk.observe(row)
	}
	return chk.failed()
}

func TestCheckerCountsDroppedDuplicatedAndAlteredRows(t *testing.T) {
	for _, w := range workloads {
		d, err := generate(w, 1, 1000)
		if err != nil {
			t.Fatal(err)
		}
		good := referenceRows(d)
		if got := failedOn(d, good); got != 0 {
			t.Errorf("%s: the reference output itself counts %d failed", w.name, got)
		}
		dropped := append(append([][]any{}, good[:10]...), good[11:]...)
		duplicated := append(append([][]any{}, good...), good[10])
		altered := append([][]any{}, good...)
		lastCol := len(good[10]) - 1
		altered[10] = append([]any{}, good[10]...)
		altered[10][lastCol] = good[10][lastCol].(int64) + 1
		for name, rows := range map[string][][]any{"dropped": dropped, "duplicated": duplicated, "altered": altered} {
			if got := failedOn(d, rows); got != 1 {
				t.Errorf("%s: one %s row counts %d failed, want 1", w.name, name, got)
			}
		}
	}
}

func TestCheckerRejectsRowTheFilterDrops(t *testing.T) {
	w := workloadByName("filter")
	d, err := generate(w, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for d.units[seq] > 50 {
		seq++
	}
	leaked := []any{d.ts(seq), int64(seq), int64(d.product[seq]), int64(d.units[seq])}
	if got := failedOn(d, append(referenceRows(d), leaked)); got != 1 {
		t.Errorf("a row with units <= 50 in the output counts %d failed, want 1", got)
	}
}

// The sliding-window reference is plain Go written for this benchmark; the
// engine's own bounded executor, which shares no code with it, must agree.
func TestSlidingReferenceAgreesWithBoundedExecutor(t *testing.T) {
	w := workloadByName("window_sum")
	for _, seed := range []int64{1, 7} {
		d, err := generate(w, seed, 2000)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newCluster()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.load(d, d.n, nil, -1); err != nil {
			t.Fatal(err)
		}
		rows, err := c.engine.ExecuteBounded(strings.Replace(w.sql, "SELECT STREAM", "SELECT", 1))
		if err != nil {
			t.Fatal(err)
		}
		if got := failedOn(d, rows); got != 0 || len(rows) != d.n {
			t.Errorf("seed %d: %d of %d bounded-executor rows disagree with the reference", seed, got, len(rows))
		}
	}
}

func TestLagGrows(t *testing.T) {
	flat := []int64{900, 1200, 800, 1100, 950, 1000, 1050, 900}
	growing := []int64{1000, 2000, 4000, 6000, 9000, 12000, 16000, 20000}
	if lagGrows(flat) {
		t.Error("steady lag reported as growing")
	}
	if !lagGrows(growing) {
		t.Error("growing lag not reported")
	}
}
