package main

import "fmt"

// checker compares the rows a job emitted against the reference computed
// from the generated input. Every input row [from, to) of the dataset is
// expected to yield the reference's row (or none) exactly once.
type checker struct {
	d        *dataset
	from, to int
	expected int     // reference output rows of [from, to)
	seen     []bool  // by seq - from
	want     []int64 // scratch reference row

	observed   int // output rows that belong to [from, to) and were new
	duplicated int // output rows seen more than once
	wrong      int // output rows with a column differing from the reference
	unexpected int // output rows the reference does not emit, or out of range
	firstBad   string
}

func newChecker(d *dataset, from, to int) *checker {
	return &checker{
		d: d, from: from, to: to,
		expected: d.outputs(from, to),
		seen:     make([]bool, to-from),
		want:     make([]int64, d.w.cols),
	}
}

// observe checks one decoded output row and returns the sequence number it
// carries. Rows of the probe (sequence number -1) are ignored.
func (c *checker) observe(row []any) int {
	seq64, ok := row[c.d.w.seqCol].(int64)
	if !ok {
		c.bad(&c.unexpected, "row without a sequence number: %v", row)
		return -1
	}
	seq := int(seq64)
	if seq == -1 {
		return -1
	}
	if seq < c.from || seq >= c.to {
		c.bad(&c.unexpected, "row %d outside [%d, %d)", seq, c.from, c.to)
		return -1
	}
	if !c.d.w.expect(c.d, seq, c.want) {
		c.bad(&c.unexpected, "row %d should have produced no output: %v", seq, row)
		return seq
	}
	if c.seen[seq-c.from] {
		c.bad(&c.duplicated, "row %d emitted again: %v", seq, row)
		return seq
	}
	c.seen[seq-c.from] = true
	c.observed++
	for i, want := range c.want {
		if got, ok := row[i].(int64); !ok || got != want {
			c.bad(&c.wrong, "row %d is %v, want %v", seq, row, c.want)
			break
		}
	}
	return seq
}

func (c *checker) bad(counter *int, format string, args ...any) {
	*counter++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf(format, args...)
	}
}

// missing counts reference rows that were never observed.
func (c *checker) missing() int {
	return c.expected - c.observed
}

// failed is the number of failed operations: each missing, duplicated,
// wrong or unexpected output row is one.
func (c *checker) failed() int {
	return c.missing() + c.duplicated + c.wrong + c.unexpected
}

func (c *checker) String() string {
	s := fmt.Sprintf("missing=%d duplicated=%d wrong=%d unexpected=%d", c.missing(), c.duplicated, c.wrong, c.unexpected)
	if c.firstBad != "" {
		s += " first: " + c.firstBad
	}
	return s
}
