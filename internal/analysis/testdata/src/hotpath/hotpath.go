// Package hotpath is a golden fixture for the hotpath-alloc analyzer. Every
// `// want "…"` comment is a regexp the driver test matches against the
// diagnostic reported on that line; lines without a want comment must stay
// clean.
package hotpath

import "fmt"

func sink(args ...any) {}

func callback(f func()) { f() }

var prebuilt = map[string]int{}

//samzasql:hotpath
func process(key string, n int) string {
	s := fmt.Sprintf("%s-%d", key, n) // want `fmt\.Sprintf in a //samzasql:hotpath function`
	s = s + key                       // want `string concatenation in //samzasql:hotpath function process`
	s += key                          // want `string concatenation in //samzasql:hotpath function process`
	m := make(map[string]int)         // want `make\(map\) in a //samzasql:hotpath function`
	_ = map[string]int{"a": n}        // want `map literal in //samzasql:hotpath function process`
	callback(func() { _ = key })      // want `closure in //samzasql:hotpath function process captures "key"`
	sink(n)                           // want `passing int as interface argument 0 boxes it`
	m[key] = n
	return s
}

//samzasql:hotpath
func allowed(key string, n int) error {
	// Cold error construction is fine: error paths do not run per message.
	if n < 0 {
		return fmt.Errorf("bad count %d for %s", n, key)
	}
	// Deferred and directly-invoked literals stay on the stack.
	defer func() { _ = key }()
	func() { _ = n }()
	// Constants box into the runtime's static cells or fold away.
	sink(1)
	// Reusing a hoisted map is the prescribed pattern.
	prebuilt[key] = n
	// A closure capturing nothing from this frame does not pin locals.
	callback(func() { prebuilt["x"] = 0 })
	return nil
}

//samzasql:hotpath
func suppressed(key string, n int) string {
	//samzasql:ignore hotpath-alloc -- init-once slow path, guarded by sync.Once upstream
	return fmt.Sprintf("%s-%d", key, n) // want-suppressed `fmt\.Sprintf in a //samzasql:hotpath function`
}

// processBlock documents the vectorized-execution granularity: one
// allocation per *block* is the allowed unit, per-row allocations inside the
// row loop are not. Slice construction (a per-block value slab), append
// growth, and boxing into slice elements (columnar []any
// scatter) are all legal; the per-row patterns above remain banned even when
// the function processes blocks.
//
//samzasql:hotpath
func processBlock(rows []int, keys []string) [][]any {
	// Fresh slab per block: one make per block, not per row.
	slab := make([]byte, 0, 1024)
	cols := make([][]any, 1)
	cols[0] = make([]any, len(rows))
	for r, v := range rows {
		slab = append(slab, byte(v))
		// Boxing into a slice element is the columnar scatter pattern; only
		// boxing into interface *call arguments* is flagged.
		cols[0][r] = v
		_ = fmt.Sprintf("row-%d", v) // want `fmt\.Sprintf in a //samzasql:hotpath function`
		sink(v)                      // want `passing int as interface argument 0 boxes it`
		_ = keys[r] + "!"            // want `string concatenation in //samzasql:hotpath function processBlock`
	}
	_ = slab
	return cols
}

// statefulOp models the block-native stateful operators (join, sliding
// window, aggregate): the per-block distinct-key state map and the
// downstream sink live on the operator, the map is cleared by a
// non-annotated reset helper, and the sink closure binds once at Open. The
// hotpath fold loop then runs allocation-free per row; state-map allocation
// granularity is per operator lifetime, never per block or per row.
type statefulOp struct {
	states map[string]int
	keys   []string
	emit   func(k string)
}

// resetStates is deliberately un-annotated: allocating the map on first use
// and clearing it between blocks is the prescribed hoisting pattern for the
// make(map) diagnostic below.
func (o *statefulOp) resetStates() {
	if o.states == nil {
		o.states = make(map[string]int)
	}
	for k := range o.states {
		delete(o.states, k)
	}
	o.keys = o.keys[:0]
}

// bind is the Open-time pattern for the escaping-closure diagnostic: the
// sink closure is constructed once, outside any hot path, and the hot path
// only invokes the stored field.
func (o *statefulOp) bind(sink func(string)) {
	o.emit = func(k string) { sink(k) }
}

//samzasql:hotpath
func (o *statefulOp) foldBlock(rows []int, keys []string) {
	o.resetStates() // legal: the allocation lives in the un-annotated helper
	for r := range rows {
		if _, ok := o.states[keys[r]]; !ok {
			o.keys = append(o.keys, keys[r]) // distinct keys in first-touch order
		}
		o.states[keys[r]] += rows[r]
	}
	for _, k := range o.keys {
		o.emit(k) // legal: bound once in bind, not constructed here
	}
}

//samzasql:hotpath
func (o *statefulOp) foldBlockPerBlockAllocs(rows []int, keys []string, flush func(func(string))) {
	states := make(map[string]int) // want `make\(map\) in a //samzasql:hotpath function`
	for r := range rows {
		states[keys[r]] += rows[r]
	}
	o.states = states
	flush(func(k string) { _ = o.states[k] }) // want `closure in //samzasql:hotpath function foldBlockPerBlockAllocs captures "o" and escapes`
}

// cold has no annotation: the same patterns are legal here.
func cold(key string, n int) string {
	m := make(map[string]int)
	m[key] = n
	sink(n)
	return fmt.Sprintf("%s-%d", key, n)
}
