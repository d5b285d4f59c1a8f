package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"

	"samzasql/internal/avro"
	"samzasql/internal/kafka"
	smetrics "samzasql/internal/metrics"
)

const (
	// sampleEvery is the period of the lag and heap samplers.
	sampleEvery = 100 * time.Millisecond
	// stragglerWait is how long after the last send a rung still waits for
	// output rows before it counts them as missing.
	stragglerWait = 5 * time.Second
	// lagSlackRows is one commit interval (Engine.Submit's CommitEvery): lag
	// below it is noise, not a trend.
	lagSlackRows = 1000
	// lateShare is the share of the latency limit the generator's p99
	// lateness may reach before a rung's numbers are not to be trusted.
	lateShare = 0.25
	// changelogSuffix ends the name of every store changelog topic
	// (samza.JobSpec.ChangelogTopic).
	changelogSuffix = "-changelog"
)

// every runs fn on its own goroutine each interval until the returned stop
// function is called; stop waits for the goroutine to end.
func every(interval time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// heapPeak tracks the largest heap in use seen across the measured phases.
type heapPeak struct {
	samples []metrics.Sample
	peak    uint64
	n       int
}

func newHeapPeak() *heapPeak {
	// Objects plus unused spans is what runtime.MemStats calls HeapInuse;
	// runtime/metrics reads it without stopping the world.
	return &heapPeak{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

func (h *heapPeak) sample() {
	metrics.Read(h.samples)
	h.peak = max(h.peak, h.samples[0].Value.Uint64()+h.samples[1].Value.Uint64())
	h.n++
}

// drainResult is one timed drain of a pre-loaded backlog.
type drainResult struct {
	rows    int
	seconds float64 // first output row seen to last expected output row seen
	failed  int
	detail  string
	// snapshot holds the job's merged counters and timers at the end of the
	// drain; wallSeconds is Submit to last row, the base of busy shares.
	snapshot    smetrics.Snapshot
	wallSeconds float64
	topics      map[string]int64 // rows per topic at the end of the drain
	bytesMoved  int64            // sum of Message.Size over every topic (traced runs)
	skew        float64          // max/mean rows over the input partitions
	stateKeys   int64            // live keys on the changelog topics (traced runs)
}

func (r drainResult) rate() float64 { return float64(r.rows) / r.seconds }

// drain pre-loads n rows on a fresh cluster, starts the query and times it
// from the first output row to the last. The output is checked against the
// reference afterwards, outside the timing. tune adjusts the engine before
// submit (the serial baseline uses it).
func drain(d *dataset, n int, heap *heapPeak, rec *recorder, tune func(*cluster)) (drainResult, error) {
	res := drainResult{rows: n}
	phase := rec.begin("drain", -1)
	defer func() { rec.end(phase, n) }()

	c, err := newCluster()
	if err != nil {
		return res, err
	}
	if tune != nil {
		tune(c)
	}
	if err := c.load(d, n, rec, phase); err != nil {
		return res, err
	}
	want := int64(d.outputs(0, n))
	runtime.GC()
	stopHeap := every(sampleEvery, heap.sample)
	r, err := c.submit(d.w, rec, phase)
	if err != nil {
		stopHeap()
		return res, err
	}
	first, last, waitErr := r.awaitOutput(want)
	stopHeap()
	heap.sample()
	res.seconds = last.Sub(first).Seconds()
	res.wallSeconds = last.Sub(r.submitted).Seconds()
	res.snapshot = r.job.MetricsSnapshot()
	stopErr := r.stop()

	chk := newChecker(d, 0, n)
	if err := readOutput(r, chk, rec, phase); err != nil {
		return res, err
	}
	res.failed, res.detail = chk.failed(), chk.String()
	if waitErr != nil || stopErr != nil {
		// The rows that never arrived are already counted as missing.
		res.detail += fmt.Sprintf(" (%v %v)", waitErr, stopErr)
		res.failed = max(res.failed, 1)
	}
	if err := res.measureTopics(c, d, rec != nil); err != nil {
		return res, err
	}
	return res, nil
}

// outputReader polls a query's output topic, decodes each row and runs it
// through the checker.
type outputReader struct {
	cons   *kafka.Consumer
	codec  *avro.Codec
	chk    *checker
	rec    *recorder
	parent int
	row    []any
}

// next polls one batch and calls seen, if not nil, with each row's sequence
// number and the moment the batch came off the topic.
func (o *outputReader) next(ctx context.Context, seen func(seq int, at time.Time)) (int, error) {
	id := o.rec.begin("kafka.poll", o.parent)
	msgs, err := o.cons.Poll(ctx, 1024)
	at := time.Now()
	o.rec.end(id, len(msgs))
	if err != nil {
		return 0, err
	}
	id = o.rec.begin("avro.decode", o.parent)
	defer func() { o.rec.end(id, len(msgs)) }()
	for i := range msgs {
		if o.row, err = o.codec.DecodeRow(msgs[i].Value, o.row); err != nil {
			return 0, fmt.Errorf("output row does not decode: %w", err)
		}
		if seq := o.chk.observe(o.row); seen != nil {
			seen(seq, at)
		}
	}
	return len(msgs), nil
}

// readOutput decodes everything on the output topic through chk.
func readOutput(r *running, chk *checker, rec *recorder, parent int) error {
	total, err := topicRows(r.c.broker, r.prepared.OutputTopic)
	if err != nil {
		return err
	}
	cons, err := r.outputConsumer()
	if err != nil {
		return err
	}
	defer cons.Close()
	out := &outputReader{cons: cons, codec: r.prepared.Program.OutputCodec, chk: chk, rec: rec, parent: parent}
	for read := int64(0); read < total; {
		n, err := out.next(context.Background(), nil)
		if err != nil {
			return err
		}
		read += int64(n)
	}
	return nil
}

// measureTopics records how much data the drain left on each topic. Byte
// counts and live state keys need a pass over every message, so only traced
// runs take them.
func (res *drainResult) measureTopics(c *cluster, d *dataset, full bool) error {
	res.topics = map[string]int64{}
	for _, topic := range c.broker.Topics() {
		parts, err := c.broker.Partitions(topic)
		if err != nil {
			return err
		}
		isChangelog := strings.HasSuffix(topic, changelogSuffix)
		var most int64
		live := map[string]bool{}
		for p := int32(0); p < parts; p++ {
			tp := kafka.TopicPartition{Topic: topic, Partition: p}
			hwm, err := c.broker.HighWatermark(tp)
			if err != nil {
				return err
			}
			res.topics[topic] += hwm
			most = max(most, hwm)
			if !full {
				continue
			}
			for off := int64(0); off < hwm; {
				msgs, _, err := c.broker.Fetch(tp, off, 4096)
				if err != nil {
					return err
				}
				if len(msgs) == 0 {
					break
				}
				for i := range msgs {
					res.bytesMoved += int64(msgs[i].Size())
					if isChangelog {
						if msgs[i].Value == nil {
							delete(live, string(msgs[i].Key))
						} else {
							live[string(msgs[i].Key)] = true
						}
					}
				}
				off = msgs[len(msgs)-1].Offset + 1
			}
		}
		res.stateKeys += int64(len(live))
		if topic == d.w.topic() && res.topics[topic] > 0 {
			res.skew = float64(most) * float64(parts) / float64(res.topics[topic])
		}
	}
	return nil
}

// setupResult is one timed start of the query on an empty input.
type setupResult struct {
	seconds  float64 // cluster build to probe row out
	submitMs float64 // Engine.Submit to probe row out
}

// setup builds a fresh cluster, loads the relation, starts the query and
// waits for one probe row to come out. The job is left running.
func setup(d *dataset, rec *recorder) (*running, setupResult, error) {
	phase := rec.begin("setup", -1)
	defer func() { rec.end(phase, 1) }()
	begin := time.Now()
	c, err := newCluster()
	if err != nil {
		return nil, setupResult{}, err
	}
	if err := c.load(d, 0, rec, phase); err != nil {
		return nil, setupResult{}, err
	}
	r, err := c.submit(d.w, rec, phase)
	if err != nil {
		return nil, setupResult{}, err
	}
	if err := c.produce(d.w.topic(), []kafka.Message{d.probe}, rec, phase); err != nil {
		r.job.Stop()
		return nil, setupResult{}, err
	}
	id := rec.begin("probe.wait", phase)
	_, out, err := r.awaitOutput(1)
	rec.end(id, 1)
	if err != nil {
		r.job.Stop()
		return nil, setupResult{}, err
	}
	return r, setupResult{seconds: out.Sub(begin).Seconds(), submitMs: float64(out.Sub(r.submitted).Nanoseconds()) / 1e6}, nil
}

// rungPlan is one open-loop rate step.
type rungPlan struct {
	name   string
	rate   int
	warmup time.Duration // sent and checked, but latencies not recorded
	length time.Duration // recorded part
}

func (p rungPlan) rows() int {
	return int(float64(p.rate) * (p.warmup + p.length).Seconds())
}

// rungResult is what one rung measured.
type rungResult struct {
	sent      int
	latencies []int64 // ns, sorted
	failed    int
	detail    string
	lateP99Ms float64 // generator lateness
	lag       []int64 // input lag, one sample per sampleEvery, recorded part only
	// sustained: p99 within the limit, nothing failed, lag not growing.
	// valid: the generator kept its schedule closely enough to trust them.
	sustained, valid bool
}

func (r rungResult) quantileMs(q float64) float64 {
	return float64(quantile(r.latencies, q)) / 1e6
}

func (r rungResult) lagMax() int64 {
	var most int64
	for _, l := range r.lag {
		most = max(most, l)
	}
	return most
}

// quantile reads the q-quantile off sorted samples (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// rung sends rows [from, from+plan.rows()) of d into the running query on
// the open-loop schedule, with one producer and one consumer goroutine, and
// measures each row's latency from its due time to the moment its output
// row was polled off the output topic.
func rung(r *running, cons *kafka.Consumer, d *dataset, from int, plan rungPlan, heap *heapPeak, rec *recorder) (rungResult, error) {
	res := rungResult{sent: plan.rows()}
	to := from + res.sent
	if to > d.n {
		return res, fmt.Errorf("rung %s needs rows up to %d, only %d generated", plan.name, to, d.n)
	}
	phase := rec.begin("rung."+plan.name, -1)
	defer func() { rec.end(phase, res.sent) }()

	due := schedule(res.sent, plan.rate)
	warmRows := int(float64(plan.rate) * plan.warmup.Seconds())
	res.latencies = make([]int64, 0, res.sent-warmRows)
	res.lag = make([]int64, 0, int(plan.length/sampleEvery)+8)
	chk := newChecker(d, from, to)
	topic := d.w.topic()
	runtime.GC()

	start := time.Now()
	stopSampler := every(sampleEvery, func() {
		heap.sample()
		if time.Since(start) >= plan.warmup {
			res.lag = append(res.lag, r.lag())
		}
	})

	// Consumer goroutine: poll, decode, check, record.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var pollErr error
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		out := &outputReader{cons: cons, codec: r.prepared.Program.OutputCodec, chk: chk, rec: rec, parent: phase}
		for chk.missing() > 0 {
			_, err := out.next(ctx, func(seq int, at time.Time) {
				if seq >= from+warmRows {
					res.latencies = append(res.latencies, at.Sub(start).Nanoseconds()-due[seq-from])
				}
			})
			if err != nil {
				if ctx.Err() == nil {
					pollErr = err
				}
				return
			}
		}
	}()

	// Producer: this goroutine.
	var batch []kafka.Message
	late, sendErr := pace(start, due, pacerTick, func(a, b int) error {
		batch = d.fill(batch[:0], from+a, from+b)
		return r.c.produce(topic, batch, rec, phase)
	})
	sendDone := time.Since(start)
	straggler := time.AfterFunc(stragglerWait, cancel)
	<-consumed
	straggler.Stop()
	stopSampler()
	// Lag samples taken while only stragglers were awaited are not load.
	res.lag = res.lag[:min(len(res.lag), int((sendDone-plan.warmup)/sampleEvery))]

	slices.Sort(res.latencies)
	slices.Sort(late)
	res.lateP99Ms = float64(quantile(late, 0.99)) / 1e6
	res.failed, res.detail = chk.failed(), chk.String()
	for _, err := range []error{sendErr, pollErr} {
		if err != nil {
			res.failed++
			res.detail += " " + err.Error()
		}
	}
	res.valid = res.lateP99Ms <= lateShare*d.w.limitMs
	res.sustained = res.failed == 0 && res.quantileMs(0.99) <= d.w.limitMs && !lagGrows(res.lag)
	return res, nil
}

// lagGrows reports an upward trend of the input lag over the second half of
// a rung: the mean of the last quarter exceeds 1.5 times the mean of the
// third quarter plus one commit interval of rows.
func lagGrows(lag []int64) bool {
	n := len(lag)
	if n < 4 {
		return false
	}
	return mean(lag[3*n/4:]) > 1.5*mean(lag[n/2:3*n/4])+lagSlackRows
}

func mean(xs []int64) float64 {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
