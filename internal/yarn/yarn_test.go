package yarn

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func twoNodeCluster() *Cluster {
	c := NewCluster()
	c.AddNode("n1", Resource{VCores: 4, MemoryMB: 4096})
	c.AddNode("n2", Resource{VCores: 4, MemoryMB: 4096})
	return c
}

func TestSubmitRunsContainersToCompletion(t *testing.T) {
	c := twoNodeCluster()
	var ran atomic.Int32
	specs := make([]ContainerSpec, 3)
	for i := range specs {
		specs[i] = ContainerSpec{
			Resource: Resource{VCores: 1, MemoryMB: 512},
			Run: func(ctx context.Context) error {
				ran.Add(1)
				return nil
			},
		}
	}
	app, err := c.Submit(context.Background(), "job", specs)
	if err != nil {
		t.Fatal(err)
	}
	statuses := app.Wait()
	if ran.Load() != 3 {
		t.Fatalf("%d containers ran, want 3", ran.Load())
	}
	for _, s := range statuses {
		if s.Err != nil {
			t.Fatalf("container %s failed: %v", s.ID, s.Err)
		}
	}
}

func TestCapacityLimits(t *testing.T) {
	c := NewCluster()
	c.AddNode("n1", Resource{VCores: 2, MemoryMB: 1024})
	block := make(chan struct{})
	specs := []ContainerSpec{
		{Resource: Resource{VCores: 2, MemoryMB: 1024}, Run: func(ctx context.Context) error {
			// Containers must return promptly on cancellation: Submit's
			// failure path stops the whole application.
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil
		}},
		{Resource: Resource{VCores: 1, MemoryMB: 512}, Run: func(ctx context.Context) error {
			return nil
		}},
	}
	_, err := c.Submit(context.Background(), "job", specs)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("overcommit: %v", err)
	}
	close(block)
}

func TestFailedContainerRestarts(t *testing.T) {
	c := twoNodeCluster()
	var attempts atomic.Int32
	spec := ContainerSpec{
		Resource:    Resource{VCores: 1, MemoryMB: 256},
		MaxRestarts: 3,
		Run: func(ctx context.Context) error {
			if attempts.Add(1) < 3 {
				return errors.New("task crash")
			}
			return nil
		},
	}
	app, err := c.Submit(context.Background(), "job", []ContainerSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	statuses := app.Wait()
	if attempts.Load() != 3 {
		t.Fatalf("%d attempts, want 3", attempts.Load())
	}
	last := statuses[len(statuses)-1]
	if last.Err != nil {
		t.Fatalf("final attempt failed: %v", last.Err)
	}
}

func TestRestartBudgetExhausted(t *testing.T) {
	c := twoNodeCluster()
	spec := ContainerSpec{
		Resource:    Resource{VCores: 1, MemoryMB: 256},
		MaxRestarts: 2,
		Run: func(ctx context.Context) error {
			return errors.New("always fails")
		},
	}
	app, err := c.Submit(context.Background(), "job", []ContainerSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	statuses := app.Wait()
	var gaveUp bool
	for _, s := range statuses {
		if errors.Is(s.Err, ErrGiveUp) {
			gaveUp = true
		}
	}
	if !gaveUp {
		t.Fatalf("restart budget never reported: %v", statuses)
	}
	if got := app.Restarts()[ContainerID{App: "job", Seq: 0}]; got != 3 {
		t.Fatalf("restarts = %d, want 3 (2 allowed + 1 over)", got)
	}
}

func TestNodeFailureMigratesContainer(t *testing.T) {
	c := twoNodeCluster()
	started := make(chan string, 8)
	finished := make(chan struct{})
	spec := ContainerSpec{
		Resource:    Resource{VCores: 1, MemoryMB: 256},
		MaxRestarts: 2,
		Run: func(ctx context.Context) error {
			started <- "attempt"
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-finished:
				return nil
			}
		},
	}
	app, err := c.Submit(context.Background(), "job", []ContainerSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	<-started // first attempt running

	// Find which node hosts it by killing nodes until the attempt dies;
	// deterministic allocation places the first container on n1 (most free
	// cores, sorted tie-break).
	if err := c.KillNode("n1"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started: // restarted on the surviving node
	case <-time.After(5 * time.Second):
		t.Fatal("container never migrated after node death")
	}
	close(finished)
	statuses := app.Wait()

	var killed, clean bool
	for _, s := range statuses {
		if s.Killed {
			killed = true
		}
		if s.Err == nil && !s.Killed {
			clean = true
		}
	}
	if !killed || !clean {
		t.Fatalf("expected one killed and one clean attempt: %+v", statuses)
	}
	c.mu.Lock()
	n1, n2 := c.nodes["n1"].alive, c.nodes["n2"].alive
	c.mu.Unlock()
	if n1 || !n2 {
		t.Fatalf("live nodes: n1 %v, n2 %v; want only n2", n1, n2)
	}
}

func TestStopCancelsContainers(t *testing.T) {
	c := twoNodeCluster()
	spec := ContainerSpec{
		Resource: Resource{VCores: 1, MemoryMB: 256},
		Run: func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		},
	}
	app, err := c.Submit(context.Background(), "job", []ContainerSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		app.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop never returned")
	}
}

func TestKillUnknownNode(t *testing.T) {
	c := NewCluster()
	if err := c.KillNode("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("KillNode(ghost): %v", err)
	}
}

func TestSubmitOnEmptyCluster(t *testing.T) {
	c := NewCluster()
	_, err := c.Submit(context.Background(), "job", []ContainerSpec{{
		Resource: Resource{VCores: 1},
		Run:      func(ctx context.Context) error { return nil },
	}})
	if !errors.Is(err, ErrClusterEmpty) {
		t.Fatalf("empty cluster: %v", err)
	}
}
