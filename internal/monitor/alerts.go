package monitor

import "sync"

// DefaultAlertsTopic is the stream alert transitions publish to. The "__"
// prefix marks it a framework stream, like __metrics.
const DefaultAlertsTopic = "__alerts"

// AlertState is the transition an alert record announces.
type AlertState string

const (
	// StateFiring means the rule's condition held for its sustain count.
	StateFiring AlertState = "firing"
	// StateResolved means a firing alert's condition cleared for the
	// sustain count.
	StateResolved AlertState = "resolved"
)

// AlertMessage is one alert transition on __alerts, encoded with the
// control-stream codec (samza.EncodeRecord). Records are published only on
// transitions (deduplication: a condition that keeps violating while firing
// publishes nothing), so the stream is a compact event log of SLO state
// changes, replayable like any other stream. It carries no samza.Header:
// an alert belongs to a rule and subject, not to a publishing container.
type AlertMessage struct {
	// Rule names the rule that fired, unique within the monitor config.
	Rule string `json:"rule"`
	// Kind is the rule kind ("lag", "throughput-drop", "p99", "task-flap").
	Kind string `json:"kind"`
	// Job is the job the subject belongs to; empty for cluster-wide rules.
	Job string `json:"job,omitempty"`
	// Subject is what violated: a topic/partition for lag rules, a metric
	// name for latency/throughput rules, a task name for flap rules.
	Subject string `json:"subject"`
	// State is the transition: firing or resolved.
	State AlertState `json:"state"`
	// Value is the observed value at transition time (lag messages, p99
	// nanoseconds, flaps in window, throughput percent of trailing).
	Value int64 `json:"value"`
	// Threshold is the rule's configured bound.
	Threshold int64 `json:"threshold"`
	// Reason is a human-readable one-liner ("lag 1240 >= 200 for 3 samples,
	// +900 over window").
	Reason string `json:"reason,omitempty"`
	// TimeMillis is the transition wall-clock time.
	TimeMillis int64 `json:"time-millis"`
	// SinceMillis is when the alert started firing (set on both states, so
	// a resolved record carries the incident duration).
	SinceMillis int64 `json:"since-millis,omitempty"`
	// Seq numbers this monitor's alert records from 1.
	Seq int64 `json:"seq"`
}

// alertKey identifies one alert instance for deduplication. The job is part
// of the key: different jobs legitimately share subject names (every
// throughput rule's subject is its metric name), and each gets its own
// firing lifecycle.
type alertKey struct {
	rule    string
	job     string
	subject string
}

// alertStatus tracks one (rule, subject) pair through the sustain/firing
// state machine.
type alertStatus struct {
	firing      bool
	violStreak  int // consecutive violating evaluations
	cleanStreak int // consecutive clean evaluations while firing
	sinceMillis int64
	lastValue   int64
	lastReason  string
}

// alertManager is the firing/resolved state machine. Only the monitor run
// loop calls observe/sweep; the mutex exists for the /alerts handler and
// shell reads.
type alertManager struct {
	mu     sync.Mutex
	states map[alertKey]*alertStatus
	recent []AlertMessage // transition history ring, newest last
	seq    int64
}

// recentCap bounds the transition history kept for /alerts.
const recentCap = 256

func newAlertManager() *alertManager {
	return &alertManager{states: map[alertKey]*alertStatus{}}
}

// observe folds one evaluation of (rule, subject) into the state machine
// and returns the transition to publish, if this evaluation caused one.
// sustain is the number of consecutive evaluations the condition must hold
// (or clear) before the state flips — the debounce that keeps a flapping
// signal from spamming __alerts.
func (am *alertManager) observe(r Rule, job, subject string, violated bool, value int64, reason string, nowMillis int64) *AlertMessage {
	sustain := r.Sustain
	if sustain < 1 {
		sustain = 1
	}
	key := alertKey{rule: r.Name, job: job, subject: subject}
	am.mu.Lock()
	defer am.mu.Unlock()
	st := am.states[key]
	if st == nil {
		if !violated {
			return nil // never seen and clean: nothing to track
		}
		st = &alertStatus{}
		am.states[key] = st
	}
	st.lastValue = value
	if reason != "" {
		st.lastReason = reason
	}
	var transition *AlertMessage
	if violated {
		st.cleanStreak = 0
		st.violStreak++
		if !st.firing && st.violStreak >= sustain {
			st.firing = true
			st.sinceMillis = nowMillis
			transition = am.record(r, job, subject, StateFiring, value, reason, nowMillis, st.sinceMillis)
		}
	} else {
		st.violStreak = 0
		if st.firing {
			st.cleanStreak++
			if st.cleanStreak >= sustain {
				st.firing = false
				transition = am.record(r, job, subject, StateResolved, value, reason, nowMillis, st.sinceMillis)
				st.sinceMillis = 0
			}
		}
	}
	return transition
}

// record appends a transition to the history ring and returns it. Caller
// holds am.mu.
func (am *alertManager) record(r Rule, job, subject string, state AlertState, value int64, reason string, nowMillis, sinceMillis int64) *AlertMessage {
	am.seq++
	msg := AlertMessage{
		Rule:        r.Name,
		Kind:        string(r.Kind),
		Job:         job,
		Subject:     subject,
		State:       state,
		Value:       value,
		Threshold:   r.Threshold,
		Reason:      reason,
		TimeMillis:  nowMillis,
		SinceMillis: sinceMillis,
		Seq:         am.seq,
	}
	am.recent = append(am.recent, msg)
	if len(am.recent) > recentCap {
		am.recent = am.recent[len(am.recent)-recentCap:]
	}
	return &msg
}

// ActiveAlert is one currently-firing alert, for /alerts and \top.
type ActiveAlert struct {
	Rule        string `json:"rule"`
	Job         string `json:"job,omitempty"`
	Subject     string `json:"subject"`
	Value       int64  `json:"value"`
	Reason      string `json:"reason,omitempty"`
	SinceMillis int64  `json:"since-millis"`
}

// Active returns the currently-firing alerts, sorted by rule, job, subject.
func (am *alertManager) Active() []ActiveAlert {
	am.mu.Lock()
	defer am.mu.Unlock()
	out := make([]ActiveAlert, 0, len(am.states))
	for key, st := range am.states {
		if !st.firing {
			continue
		}
		out = append(out, ActiveAlert{
			Rule:        key.rule,
			Job:         key.job,
			Subject:     key.subject,
			Value:       st.lastValue,
			Reason:      st.lastReason,
			SinceMillis: st.sinceMillis,
		})
	}
	sortActive(out)
	return out
}

func sortActive(out []ActiveAlert) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.Rule < b.Rule ||
				(a.Rule == b.Rule && a.Job < b.Job) ||
				(a.Rule == b.Rule && a.Job == b.Job && a.Subject <= b.Subject) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
}

// Recent returns the newest transition records, newest last, up to max.
func (am *alertManager) Recent(max int) []AlertMessage {
	am.mu.Lock()
	defer am.mu.Unlock()
	n := len(am.recent)
	if max > 0 && n > max {
		n = max
	}
	out := make([]AlertMessage, n)
	copy(out, am.recent[len(am.recent)-n:])
	return out
}
