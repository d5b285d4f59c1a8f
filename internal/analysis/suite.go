package analysis

// Suite returns every project analyzer, in stable order. The first six are
// per-package; the last two are whole-program (CFG + call graph).
func Suite() []*Analyzer {
	return []*Analyzer{
		ErrDrop,
		GoroutineSupervision,
		HotpathAlloc,
		LockDiscipline,
		MetricsBinding,
		ProfileGuard,
		ChanLeak,
		LockOrder,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Suite() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
