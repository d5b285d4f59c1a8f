package samza

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"samzasql/internal/kafka"
	"samzasql/internal/metrics"
	"samzasql/internal/trace"
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

func goldenTraceBatch() *TraceBatchMessage {
	return &TraceBatchMessage{
		Header: Header{Job: "orders", Container: 1, TimeMillis: 1700000000456, Seq: 3},
		Spans: []trace.Span{
			{TraceID: 7, SpanID: 8, Stage: "produce", StartNs: 10, EndNs: 10},
			{TraceID: 7, SpanID: 9, ParentID: 8, Stage: "poll", StartNs: 11, EndNs: 12, Rows: 64},
		},
		Events:  []trace.Event{{TimeNs: 5, Kind: "container-start", Detail: "orders container 1"}},
		Dropped: 2,
	}
}

func goldenRunnerBatch() *TraceBatchMessage {
	return &TraceBatchMessage{
		Header: Header{Container: -1, TimeMillis: 1700000000789, Seq: 1},
		Events: []trace.Event{{TimeNs: 1700000000789000000, Kind: "job-start", Detail: "orders"}},
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
		{"trace-batch", goldenTraceBatch(),
			`{"job":"orders","container":1,"time-millis":1700000000456,"seq":3,"spans":[{"trace":7,"span":8,"stage":"produce","start-ns":10,"end-ns":10},{"trace":7,"span":9,"parent":8,"stage":"poll","start-ns":11,"end-ns":12,"rows":64}],"events":[{"time-ns":5,"kind":"container-start","detail":"orders container 1"}],"dropped":2}`},
		{"runner-lifecycle-batch", goldenRunnerBatch(),
			`{"job":"","container":-1,"time-millis":1700000000789,"seq":1,"events":[{"time-ns":1700000000789000000,"kind":"job-start","detail":"orders"}]}`},
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
		{"trace-batch", func(t *testing.T) {
			in := &TraceBatchMessage{
				Header: Header{Job: "j", Container: 1, TimeMillis: 99, Seq: 3, Final: true},
				Spans: []trace.Span{
					{TraceID: 7, SpanID: 8, ParentID: 0, Stage: "produce", StartNs: 10, EndNs: 10},
					{TraceID: 7, SpanID: 9, ParentID: 8, Stage: "poll", StartNs: 11, EndNs: 12},
				},
				Events:  []trace.Event{{TimeNs: 5, Kind: "container-start", Detail: "j container 1"}},
				Dropped: 2,
			}
			out := roundTrip(t, in)
			if out.Header != in.Header || out.Dropped != 2 {
				t.Fatalf("round trip mangled envelope: %+v", out)
			}
			if len(out.Spans) != 2 || out.Spans[1].ParentID != 8 || out.Spans[1].Stage != "poll" {
				t.Fatalf("round trip mangled spans: %+v", out.Spans)
			}
			if len(out.Events) != 1 || out.Events[0].Kind != "container-start" {
				t.Fatalf("round trip mangled events: %+v", out.Events)
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

// TestPublisherRunInitialTickAndFinal pins the one publish rule every
// reporter shares: a record at start, one per interval, and a Final one
// after cancel; a nil collect publishes nothing and takes no Seq.
func TestPublisherRunInitialTickAndFinal(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.EnsureTopic("__ctl", kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	ticked := make(chan struct{}, 1)
	calls := 0
	collect := func(_ context.Context, final bool) Record {
		calls++
		switch {
		case final:
			return &TraceBatchMessage{Dropped: int64(calls)}
		case calls == 2:
			return nil // an empty drain
		case calls == 3:
			ticked <- struct{}{}
		}
		return &TraceBatchMessage{Dropped: int64(calls)}
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

	tail, err := NewTailer[TraceBatchMessage](b, "__ctl")
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
	if len(got) < 3 || got[0].Dropped != 1 || got[1].Dropped != 3 {
		t.Fatalf("want the start record, the empty tick skipped, then ticks; got %d records", len(got))
	}
	for i, m := range got {
		if m.Job != "j" || m.Container != 3 || m.Seq != int64(i+1) || m.TimeMillis == 0 {
			t.Fatalf("record %d header %+v, want job j container 3 seq %d", i, m.Header, i+1)
		}
		if m.Final != (i == len(got)-1) {
			t.Fatalf("record %d of %d has Final=%v", i, len(got), m.Final)
		}
	}
}

// TestPublisherConcurrentSeq publishes from several goroutines at once, as
// the runner's event log does (YARN callbacks, Submit and Stop): every
// record must land with its own Seq, none lost or repeated.
func TestPublisherConcurrentSeq(t *testing.T) {
	b := kafka.NewBroker()
	if err := b.EnsureTopic(DefaultTraceTopic, kafka.TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(b, DefaultTraceTopic, "", -1)
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := pub.Publish(&TraceBatchMessage{Events: []trace.Event{{Kind: "e"}}}, false); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	tail, err := NewTailer[TraceBatchMessage](b, DefaultTraceTopic)
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
			if seen[m.Seq] || m.Seq < 1 || m.Seq > writers*each || m.Container != -1 {
				t.Fatalf("record header %+v repeats or falls outside seq 1..%d", m.Header, writers*each)
			}
			seen[m.Seq] = true
		}
	}
}
