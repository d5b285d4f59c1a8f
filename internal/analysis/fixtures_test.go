package analysis

import "testing"

// Each fixture package proves its analyzer on at least one true positive,
// at least one legal shape, and one //samzasql:ignore suppression.

func TestHotpathAllocFixture(t *testing.T) {
	checkFixture(t, "hotpath", HotpathAlloc)
}

func TestMetricsBindingFixture(t *testing.T) {
	checkFixture(t, "metricsbind", MetricsBinding)
}

func TestLockDisciplineFixture(t *testing.T) {
	checkFixture(t, "locks", LockDiscipline)
}

func TestErrDropFixture(t *testing.T) {
	checkFixture(t, "errdrop", ErrDrop)
}

func TestGoroutineSupervisionFixture(t *testing.T) {
	checkFixture(t, "goroutine", GoroutineSupervision)
}

func TestTraceGuardFixture(t *testing.T) {
	checkFixture(t, "traceguard", TraceGuard)
}

func TestProfileGuardFixture(t *testing.T) {
	checkFixture(t, "profileguard", ProfileGuard)
}

func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, "lockorder", LockOrder)
}

func TestChanLeakFixture(t *testing.T) {
	checkFixture(t, "chanleak", ChanLeak)
}
