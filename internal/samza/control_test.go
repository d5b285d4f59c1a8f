package samza

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
)

// The fixed records of the wire goldens, one per control-record shape.
func goldenSnapshot() *MetricsSnapshotMessage {
	return &MetricsSnapshotMessage{
		Header: Header{Job: "orders", Container: 2, TimeMillis: 1700000000123, Seq: 7, Final: true},
		Metrics: metrics.Snapshot{
			Counters:   map[string]int64{"messages-processed": 42, "commits": 3},
			Gauges:     map[string]int64{"kafka.lag.orders.0": 5},
			Histograms: map[string]metrics.HistogramSnapshot{"task.Partition-0.process-ns": {Count: 4, Sum: 4000, Max: 1500, P50: 900, P95: 1500, P99: 1500}},
		},
	}
}

// TestControlRecordGoldens pins the encoded bytes of one fixed record of
// each kind. The expected strings were recorded from the per-stream serdes
// the shared codec replaced; a change here is a wire-format change that
// every reader of a retained control stream would see.
func TestControlRecordGoldens(t *testing.T) {
	cases := []struct {
		name string
		rec  Record
		want string
	}{
		{"metrics-snapshot", goldenSnapshot(),
			`{"job":"orders","container":2,"time-millis":1700000000123,"seq":7,"final":true,"metrics":{"counters":{"commits":3,"messages-processed":42},"gauges":{"kafka.lag.orders.0":5},"histograms":{"task.Partition-0.process-ns":{"count":4,"sum":4000,"max":1500,"p50":900,"p95":1500,"p99":1500}}}}`},
	}
	for _, c := range cases {
		got, err := EncodeRecord(c.rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s encodes as\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}

// roundTrip encodes in and decodes it back as an M.
func roundTrip[M any](t *testing.T, in *M) *M {
	t.Helper()
	data, err := EncodeRecord(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRecord[M](data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestControlRecordRoundTrip decodes what the codec encodes, for each
// record type: the header flattened into the record and the payload.
func TestControlRecordRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		check func(t *testing.T)
	}{
		{"metrics-snapshot", func(t *testing.T) {
			in := &MetricsSnapshotMessage{Header: Header{Job: "j", Container: 2, TimeMillis: 123, Seq: 7}}
			in.Metrics.Counters = map[string]int64{"messages-processed": 42}
			in.Metrics.Gauges = map[string]int64{"kafka.lag.orders.0": 5}
			out := roundTrip(t, in)
			if out.Header != in.Header {
				t.Fatalf("round trip mangled envelope: %+v", out.Header)
			}
			if out.Metrics.Counters["messages-processed"] != 42 || out.Metrics.Gauges["kafka.lag.orders.0"] != 5 {
				t.Fatalf("round trip mangled metrics: %+v", out.Metrics)
			}
		}},
		{"final-snapshot-histograms", func(t *testing.T) {
			in := &MetricsSnapshotMessage{Header: Header{Job: "j", Container: 1, TimeMillis: 99, Seq: 3, Final: true}}
			in.Metrics.Histograms = map[string]metrics.HistogramSnapshot{
				"operator.project.process-ns": {Count: 4, Sum: 4000, Max: 1500, P50: 900, P95: 1500, P99: 1500},
			}
			out := roundTrip(t, in)
			if out.Header != in.Header {
				t.Fatalf("round trip mangled envelope: %+v", out.Header)
			}
			if got, want := out.Metrics.Histograms["operator.project.process-ns"], in.Metrics.Histograms["operator.project.process-ns"]; !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mangled histogram: %+v, want %+v", got, want)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.check)
	}
}

// TestTailerSkipsCorruptRecord is the regression test for losing a poll to
// one bad record: the consumer is already past the whole batch when a
// record fails to decode, so the tailer must skip it, report it, and still
// return the good records after it.
func TestTailerSkipsCorruptRecord(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.EnsureTopic(DefaultMetricsTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(b, DefaultMetricsTopic, "j", 0)
	if err := pub.Publish(&MetricsSnapshotMessage{}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Produce(DefaultMetricsTopic, kafka.Message{Value: []byte("{not json")}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(&MetricsSnapshotMessage{}, true); err != nil {
		t.Fatal(err)
	}

	tail, err := NewTailer[MetricsSnapshotMessage](b, DefaultMetricsTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	got, err := tail.Poll(ctx, 16)
	var bad *DecodeError
	if !errors.As(err, &bad) || bad.Skipped != 1 {
		t.Fatalf("poll error = %v, want a DecodeError skipping 1 record", err)
	}
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 || !got[1].Final {
		t.Fatalf("got %d records %+v, want seq 1 and the final seq 2 around the corrupt one", len(got), got)
	}
}

// TestPublisherRunInitialTickAndFinal pins the reporter's publish rule: a
// record at start, one per interval, and a Final one after cancel.
func TestPublisherRunInitialTickAndFinal(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.EnsureTopic("__ctl", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	ticked := make(chan struct{}, 1)
	calls := 0
	collect := func() Record {
		calls++
		if calls == 3 {
			ticked <- struct{}{}
		}
		rec := &MetricsSnapshotMessage{}
		rec.Metrics.Counters = map[string]int64{"calls": int64(calls)}
		return rec
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewPublisher(b, "__ctl", "j", 3).Run(ctx, time.Millisecond, collect)
	}()
	<-ticked
	cancel()
	<-done

	tail, err := NewTailer[MetricsSnapshotMessage](b, "__ctl")
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	pctx, pcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer pcancel()
	got, err := tail.Poll(pctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 4 {
		t.Fatalf("want the start record, two ticks and the final record; got %d records", len(got))
	}
	for i, m := range got {
		if m.Job != "j" || m.Container != 3 || m.Seq != int64(i+1) || m.TimeMillis == 0 {
			t.Fatalf("record %d header %+v, want job j container 3 seq %d", i, m.Header, i+1)
		}
		if n := m.Metrics.Counters["calls"]; n != int64(i+1) {
			t.Fatalf("record %d carries collect call %d", i, n)
		}
		if m.Final != (i == len(got)-1) {
			t.Fatalf("record %d of %d has Final=%v", i, len(got), m.Final)
		}
	}
}

// TestPublisherConcurrentSeq publishes from several goroutines at once
// (Publisher is documented safe for concurrent use): every record must land
// with its own Seq, none lost or repeated.
func TestPublisherConcurrentSeq(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.EnsureTopic(DefaultMetricsTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(b, DefaultMetricsTopic, "j", 4)
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := pub.Publish(&MetricsSnapshotMessage{}, false); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	tail, err := NewTailer[MetricsSnapshotMessage](b, DefaultMetricsTopic)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	seen := map[int64]bool{}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for len(seen) < writers*each {
		got, err := tail.Poll(ctx, 256)
		if err != nil {
			t.Fatalf("after %d records: %v", len(seen), err)
		}
		for _, m := range got {
			if seen[m.Seq] || m.Seq < 1 || m.Seq > writers*each || m.Container != 4 {
				t.Fatalf("record header %+v repeats or falls outside seq 1..%d", m.Header, writers*each)
			}
			seen[m.Seq] = true
		}
	}
}
