package analysis

// Suite returns every project analyzer, in stable order. The first seven are
// per-package; the last two are whole-program (CFG + call graph).
func Suite() []*Analyzer {
	return []*Analyzer{
		ErrDrop,
		GoroutineSupervision,
		HotpathAlloc,
		LockDiscipline,
		MetricsBinding,
		ProfileGuard,
		TraceGuard,
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
