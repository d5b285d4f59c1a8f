// Package trace is an empty stand-in for the span tracer the engine no
// longer has. It keeps the two constructors the benchmark module's task
// adapter still calls when it fills samza.TaskContext.Trace; nothing reads
// what they return. Delete it with that field (ROADMAP item 6).
package trace

// Recorder records nothing.
type Recorder struct{}

// NewRecorder returns a Recorder; the capacity is ignored.
func NewRecorder(int) *Recorder { return &Recorder{} }

// Active is an inert tracing cursor.
type Active struct{}

// NewActive returns an Active; the recorder is ignored.
func NewActive(*Recorder) *Active { return &Active{} }
