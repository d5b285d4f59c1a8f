// Package profileguard is a golden fixture for the profile-guard analyzer:
// //samzasql:hotpath functions must not call into internal/profile. Every
// `// want` comment is a regexp matched against the diagnostic on that line;
// lines without one must stay clean.
package profileguard

import (
	"samzasql/internal/metrics"
	"samzasql/internal/profile"
)

//samzasql:hotpath
func bad(c *profile.Collector, reg *metrics.Registry, busy bool) {
	c.Refresh() // want `unguarded profile\.Refresh call in //samzasql:hotpath function bad`
	if busy {   // no condition makes the call legal
		_ = profile.NewCollector(reg) // want `unguarded profile\.NewCollector call in //samzasql:hotpath function bad`
	}
}

//samzasql:hotpath
func good(heapLive *metrics.Gauge) (string, int64) {
	// Naming a series the collector writes and reading a pre-bound gauge
	// are not calls into the package.
	return profile.RuntimeHeapLive, heapLive.Value()
}

//samzasql:hotpath
func suppressed(c *profile.Collector) {
	//samzasql:ignore profile-guard -- cold init path, runs once per task
	c.Refresh() // want-suppressed `unguarded profile\.Refresh call`
}

// cold has no annotation: the metrics reporter's refresh hook lives here.
func cold(c *profile.Collector) {
	c.Refresh()
}
