package monitor

import (
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/samza"
)

// TestAlertRecordGolden pins the encoded bytes of one fixed alert record,
// recorded from the per-stream serde the shared control-stream codec
// replaced.
func TestAlertRecordGolden(t *testing.T) {
	a := &AlertMessage{
		Rule: "lag", Kind: "lag", Job: "laggy", Subject: "kafka.lag.in.0", State: StateFiring,
		Value: 240, Threshold: 100, Reason: "lag 240 >= 100 for 2 samples",
		TimeMillis: 1700000002000, SinceMillis: 1700000002000, Seq: 1,
	}
	const want = `{"rule":"lag","kind":"lag","job":"laggy","subject":"kafka.lag.in.0","state":"firing","value":240,"threshold":100,"reason":"lag 240 \u003e= 100 for 2 samples","time-millis":1700000002000,"since-millis":1700000002000,"seq":1}`
	got, err := samza.EncodeRecord(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("alert encodes as\n%s\nwant\n%s", got, want)
	}
}

// TestMonitorCountsEachCorruptRecord feeds __metrics good, corrupt, good:
// both good snapshots must reach the store, and monitor.decode-errors must
// count the one bad record.
func TestMonitorCountsEachCorruptRecord(t *testing.T) {
	b := kafka.NewBroker()
	mon, err := Start(Config{Broker: b, Rules: []Rule{}, EvalInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()
	pub := samza.NewPublisher(b, samza.DefaultMetricsTopic, "j", 0)
	snap := func() *samza.MetricsSnapshotMessage {
		m := &samza.MetricsSnapshotMessage{}
		m.Metrics.Counters = map[string]int64{"messages-processed": 1}
		return m
	}
	if err := pub.Publish(snap(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce(samza.DefaultMetricsTopic, kafka.Message{Value: []byte("{not json")}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(snap(), true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return mon.reg.Counter("monitor.snapshots-ingested").Value() == 2
	}, "both good snapshots ingested")
	if got := mon.reg.Counter("monitor.decode-errors").Value(); got != 1 {
		t.Fatalf("monitor.decode-errors = %d, want 1", got)
	}
	if !closed(mon.Store(), "j", 0) {
		t.Fatal("the final snapshot after the corrupt record never reached the store")
	}
}
