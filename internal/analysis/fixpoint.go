package analysis

import "sort"

// This file is the worklist fixpoint driver for interprocedural summaries
// (lock-order's may-acquire sets): each analyzer owns a per-function fact
// (its summary), a transfer function recomputing the fact from the function
// body plus current callee facts, and an equality test. The driver iterates bottom-up until no fact
// changes; recursion and mutual recursion converge as long as the facts are
// monotone and drawn from a finite domain (lock-order's summaries are
// grow-only sets of the program's lock classes, which are both).

// Fact is an analyzer-owned per-function summary value.
type Fact any

// maxFixpointVisitsPerFunc caps how many times one function's transfer may
// re-run, as a backstop against a non-monotone transfer looping forever. At
// the cap the driver stops re-queueing that function; results degrade to
// the last computed fact instead of hanging the build.
const maxFixpointVisitsPerFunc = 64

// FactStore holds the converged facts of one Fixpoint run.
type FactStore struct {
	facts map[*Func]Fact
}

// Get returns fn's fact (nil when the transfer never produced one).
func (s *FactStore) Get(fn *Func) Fact { return s.facts[fn] }

// Fixpoint computes per-function facts to convergence over the call graph.
// transfer recomputes fn's fact; it reads callee facts through get (which
// returns nil before a callee's first visit — transfers must treat nil as
// bottom). equal compares an old and new fact; when a fact changes, every
// caller of fn re-enters the worklist.
func (g *CallGraph) Fixpoint(
	transfer func(fn *Func, get func(*Func) Fact) Fact,
	equal func(old, new Fact) bool,
) *FactStore {
	store := &FactStore{facts: make(map[*Func]Fact, len(g.Funcs))}

	// Deterministic seed order: process callees before callers where the
	// graph allows (position order is a cheap stable approximation; the
	// worklist fixes up the rest).
	queue := make([]*Func, len(g.Funcs))
	copy(queue, g.Funcs)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].Pos() < queue[j].Pos() })

	inQueue := make(map[*Func]bool, len(queue))
	visits := make(map[*Func]int, len(queue))
	for _, fn := range queue {
		inQueue[fn] = true
	}

	get := func(fn *Func) Fact { return store.facts[fn] }

	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		inQueue[fn] = false

		visits[fn]++
		if visits[fn] > maxFixpointVisitsPerFunc {
			continue
		}
		next := transfer(fn, get)
		old, seen := store.facts[fn]
		if seen && equal(old, next) {
			continue
		}
		store.facts[fn] = next
		for _, site := range g.CallerSites[fn] {
			caller := site.Caller
			if !inQueue[caller] {
				inQueue[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	return store
}
