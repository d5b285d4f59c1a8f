package samza

import (
	"errors"
	"fmt"
	"time"

	"samzasql/internal/kafka"
)

// StreamSpec describes one input stream of a job.
type StreamSpec struct {
	// Topic is the Kafka topic name.
	Topic string
	// Bootstrap marks the stream as a bootstrap stream (§2): the task
	// consumes it to its high watermark before processing other inputs.
	// SamzaSQL uses this for the relation side of stream-to-relation joins.
	Bootstrap bool
}

// StoreSpec describes one named local store of a job's tasks.
type StoreSpec struct {
	// Name is the handle tasks use via TaskContext.Store.
	Name string
	// Changelog, when true, mirrors the store to a compacted changelog
	// topic named "<job>-<store>-changelog" for restore after failure.
	Changelog bool
}

// JobSpec is the deployable description of one Samza job: Samza's job
// package plus property-file configuration collapsed into a struct, with
// the free-form Config carrying what the property file would (SamzaSQL
// stores planner metadata references there, §4.2).
type JobSpec struct {
	// Name identifies the job; checkpoint and changelog topics derive from it.
	Name string
	// Inputs are the consumed streams. All must exist at submit time.
	Inputs []StreamSpec
	// TaskFactory builds one StreamTask per partition.
	TaskFactory func() StreamTask
	// Containers is the number of containers tasks spread over. Defaults 1.
	Containers int
	// Stores declares the local stores available to tasks.
	Stores []StoreSpec
	// CommitEvery checkpoints input offsets after the block at which a task
	// has processed at least this many messages since its last commit. 0
	// disables count-based commits (commits then only happen on
	// Coordinator.Commit or shutdown).
	CommitEvery int
	// MaxRestarts bounds per-container restarts after failures.
	MaxRestarts int
	// TaskParallelism bounds how many of a container's tasks may process
	// blocks concurrently (Samza's job.container.thread.pool.size
	// analog). 0 (the default) means unbounded: every task runs its loop
	// fully in parallel. 1 reproduces the sequential container of the
	// paper's prototype. Values above the container's task count behave
	// like 0. Tasks own disjoint partitions and disjoint state, so any
	// setting preserves per-task ordering.
	TaskParallelism int
	// MetricsInterval, when positive, runs a metrics reporter per
	// container, publishing registry snapshots to DefaultMetricsTopic at this
	// period (plus an initial snapshot at start and a final one at stop).
	// 0 disables reporting.
	MetricsInterval time.Duration
	// BatchSize caps how many messages one poll delivers to a task: the
	// largest block a ProcessBatch call receives, during bootstrap and
	// after it (1 is per-message execution). 0 (the default) uses
	// DefaultBatchSize; negative values are rejected.
	BatchSize int
	// Config carries arbitrary job configuration strings.
	Config map[string]string
}

// Validate checks the spec for structural problems.
func (j *JobSpec) Validate() error {
	if j.Name == "" {
		return errors.New("samza: job needs a name")
	}
	if len(j.Inputs) == 0 {
		return fmt.Errorf("samza: job %q has no inputs", j.Name)
	}
	if j.TaskFactory == nil {
		return fmt.Errorf("samza: job %q has no task factory", j.Name)
	}
	if j.TaskParallelism < 0 {
		return fmt.Errorf("samza: job %q has negative task parallelism %d", j.Name, j.TaskParallelism)
	}
	if j.MetricsInterval < 0 {
		return fmt.Errorf("samza: job %q has negative metrics interval", j.Name)
	}
	if j.BatchSize < 0 {
		return fmt.Errorf("samza: job %q has negative batch size %d", j.Name, j.BatchSize)
	}
	seen := map[string]bool{}
	for _, in := range j.Inputs {
		if in.Topic == "" {
			return fmt.Errorf("samza: job %q has an unnamed input", j.Name)
		}
		if seen[in.Topic] {
			return fmt.Errorf("samza: job %q lists input %q twice", j.Name, in.Topic)
		}
		seen[in.Topic] = true
	}
	storeSeen := map[string]bool{}
	for _, st := range j.Stores {
		if st.Name == "" {
			return fmt.Errorf("samza: job %q has an unnamed store", j.Name)
		}
		if storeSeen[st.Name] {
			return fmt.Errorf("samza: job %q declares store %q twice", j.Name, st.Name)
		}
		storeSeen[st.Name] = true
	}
	return nil
}

// ChangelogTopic is the changelog topic name for a store of a job.
func (j *JobSpec) ChangelogTopic(store string) string {
	return fmt.Sprintf("%s-%s-changelog", j.Name, store)
}

// CheckpointTopic is the compacted topic holding task checkpoints.
func (j *JobSpec) CheckpointTopic() string {
	return fmt.Sprintf("__checkpoint-%s", j.Name)
}

// assignment maps tasks (one per partition) to containers.
type assignment struct {
	// taskPartitions[taskIdx] is the partition the task owns across every
	// input stream (Samza's GroupByPartition strategy).
	taskPartitions []int32
	// containerTasks[containerIdx] lists task indexes owned by a container.
	containerTasks [][]int
}

// planAssignment computes the task and container layout for the job against
// the broker's current topic metadata. Every input must have the same
// partition count (Samza's GroupByPartition requirement for joins to align);
// jobs whose inputs differ are rejected to avoid silently mismatched joins.
func planAssignment(b *kafka.Broker, j *JobSpec) (*assignment, error) {
	partitions := int32(-1)
	for _, in := range j.Inputs {
		n, err := b.Partitions(in.Topic)
		if err != nil {
			return nil, fmt.Errorf("samza: job %q input: %w", j.Name, err)
		}
		if partitions == -1 {
			partitions = n
		} else if n != partitions {
			return nil, fmt.Errorf("samza: job %q inputs disagree on partition count (%d vs %d); repartition upstream",
				j.Name, partitions, n)
		}
	}
	containers := j.Containers
	if containers <= 0 {
		containers = 1
	}
	if int32(containers) > partitions {
		containers = int(partitions)
	}
	a := &assignment{containerTasks: make([][]int, containers)}
	for p := int32(0); p < partitions; p++ {
		taskIdx := int(p)
		a.taskPartitions = append(a.taskPartitions, p)
		c := taskIdx % containers
		a.containerTasks[c] = append(a.containerTasks[c], taskIdx)
	}
	return a, nil
}
