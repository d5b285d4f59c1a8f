package profile

import "sort"

// FuncStat is one function's aggregate over a profile's samples: Flat is
// the value attributed to samples whose leaf frame is the function, Cum the
// value of every sample the function appears anywhere in (counted once per
// sample, so recursion does not double-count).
type FuncStat struct {
	Name string `json:"name"`
	Flat int64  `json:"flat"`
	Cum  int64  `json:"cum"`
}

// Sum totals the profile's samples at the given value index (0 for a
// negative or out-of-range index) — the denominator of a function's share:
// Fold's flat values sum to at most this, its top-N to less.
func (p *Profile) Sum(valueIndex int) int64 {
	var total int64
	for _, s := range p.Samples {
		if valueIndex >= 0 && valueIndex < len(s.Values) {
			total += s.Values[valueIndex]
		}
	}
	return total
}

// Fold aggregates the profile's samples at the given value index into
// per-function flat/cum totals, sorted by Flat descending (Cum, then name,
// break ties so output is deterministic). A negative or out-of-range index
// returns nil.
func (p *Profile) Fold(valueIndex int) []FuncStat {
	if valueIndex < 0 {
		return nil
	}
	type agg struct{ flat, cum int64 }
	byFunc := map[string]*agg{}
	// seen dedupes functions within one sample's stack for cum counting;
	// reset per sample by generation number instead of reallocating.
	seen := map[string]int{}
	gen := 0
	for _, s := range p.Samples {
		if valueIndex >= len(s.Values) {
			continue
		}
		v := s.Values[valueIndex]
		if v == 0 || len(s.LocationIDs) == 0 {
			continue
		}
		gen++
		leafDone := false
		for _, loc := range s.LocationIDs {
			for _, name := range p.FuncsAt(loc) {
				a := byFunc[name]
				if a == nil {
					a = &agg{}
					byFunc[name] = a
				}
				// The first resolvable frame of the first location is the
				// leaf (inlined frames come leaf-first within a location).
				if !leafDone {
					a.flat += v
					leafDone = true
				}
				if seen[name] != gen {
					seen[name] = gen
					a.cum += v
				}
			}
		}
	}
	out := make([]FuncStat, 0, len(byFunc))
	for name, a := range byFunc {
		out = append(out, FuncStat{Name: name, Flat: a.flat, Cum: a.cum})
	}
	SortStats(out)
	return out
}

// SortStats orders stats by Flat descending, then Cum descending, then name.
func SortStats(stats []FuncStat) {
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Flat != stats[j].Flat {
			return stats[i].Flat > stats[j].Flat
		}
		if stats[i].Cum != stats[j].Cum {
			return stats[i].Cum > stats[j].Cum
		}
		return stats[i].Name < stats[j].Name
	})
}

// Truncate keeps the top n stats (the input must already be sorted); n <= 0
// keeps everything.
func Truncate(stats []FuncStat, n int) []FuncStat {
	if n > 0 && len(stats) > n {
		return stats[:n]
	}
	return stats
}

// Delta subtracts a previous capture's per-function totals from the current
// one, dropping functions whose values did not grow — the heap-allocation
// window delta over two cumulative alloc_space captures. A nil prev returns
// cur unchanged. The result is sorted by Flat descending.
func Delta(cur, prev []FuncStat) []FuncStat {
	if len(prev) == 0 {
		out := make([]FuncStat, len(cur))
		copy(out, cur)
		SortStats(out)
		return out
	}
	base := make(map[string]FuncStat, len(prev))
	for _, s := range prev {
		base[s.Name] = s
	}
	var out []FuncStat
	for _, s := range cur {
		b := base[s.Name]
		d := FuncStat{Name: s.Name, Flat: s.Flat - b.Flat, Cum: s.Cum - b.Cum}
		if d.Flat <= 0 && d.Cum <= 0 {
			continue
		}
		if d.Flat < 0 {
			d.Flat = 0
		}
		if d.Cum < 0 {
			d.Cum = 0
		}
		out = append(out, d)
	}
	SortStats(out)
	return out
}

// Merge sums per-function stats across inputs (cross-container top-N
// aggregation), sorted by Flat descending.
func Merge(lists ...[]FuncStat) []FuncStat {
	type agg struct{ flat, cum int64 }
	byFunc := map[string]*agg{}
	for _, list := range lists {
		for _, s := range list {
			a := byFunc[s.Name]
			if a == nil {
				a = &agg{}
				byFunc[s.Name] = a
			}
			a.flat += s.Flat
			a.cum += s.Cum
		}
	}
	out := make([]FuncStat, 0, len(byFunc))
	for name, a := range byFunc {
		out = append(out, FuncStat{Name: name, Flat: a.flat, Cum: a.cum})
	}
	SortStats(out)
	return out
}
