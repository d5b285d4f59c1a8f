// Package metricsbind is a golden fixture for the metrics-binding analyzer:
// registry name-lookups are banned inside ProcessBatch/ProcessBlock
// methods, poll loops, and //samzasql:hotpath functions, and legal everywhere handles are
// bound once.
package metricsbind

import "samzasql/internal/metrics"

type task struct {
	reg      *metrics.Registry
	messages *metrics.Counter
}

// Init is the binding site: lookups are legal here.
func (t *task) Init() {
	t.messages = t.reg.Counter("task.messages")
	_ = t.reg.Gauge("task.lag")
}

// ProcessBatch is a per-message path by convention, no annotation needed.
func (t *task) ProcessBatch(n int) {
	t.reg.Counter("task.messages").Add(int64(n)) // want `registry lookup Counter\(\.\.\.\) inside a per-message ProcessBatch path`
	t.messages.Add(int64(n))                     // bound handle: fine
}

// ProcessBlock, an operator's block entry point, is the other.
func (t *task) ProcessBlock() {
	_ = t.reg.Histogram("task.block") // want `registry lookup Histogram\(\.\.\.\) inside a per-message ProcessBlock path`
}

// pollPartitions matches the poll-prefix convention.
func (t *task) pollPartitions() {
	_ = t.reg.Timer("task.poll") // want `registry lookup Timer\(\.\.\.\) inside a per-message pollPartitions path`
}

//samzasql:hotpath
func (t *task) drain() {
	_ = t.reg.Gauge("task.drain") // want `registry lookup Gauge\(\.\.\.\) inside a //samzasql:hotpath function`
}

func (t *task) pollSlow() {
	//samzasql:ignore metrics-binding -- cold rebalance path, runs once per reassignment
	t.reg.Counter("task.rebalances").Inc() // want-suppressed `registry lookup Counter\(\.\.\.\)`
}
