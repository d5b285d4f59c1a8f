// Package yarn simulates the slice of Hadoop YARN that Samza depends on
// (§2): a resource manager tracking node managers with finite capacity, a
// per-application master that requests containers, and restart of failed
// containers on surviving nodes. There is no global master involvement in
// job-level scheduling decisions — each application master schedules its own
// containers, mirroring Samza's "masterless" property.
package yarn

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Errors returned by the resource manager.
var (
	ErrNoCapacity   = errors.New("yarn: no node with free capacity")
	ErrUnknownNode  = errors.New("yarn: unknown node")
	ErrUnknownApp   = errors.New("yarn: unknown application")
	ErrAppFinished  = errors.New("yarn: application finished")
	ErrGiveUp       = errors.New("yarn: container exceeded restart budget")
	ErrClusterEmpty = errors.New("yarn: cluster has no nodes")
)

// Resource is the capacity unit requested per container.
type Resource struct {
	VCores   int
	MemoryMB int
}

// node is one node manager.
type node struct {
	id       string
	capacity Resource
	used     Resource
	alive    bool
	// running tracks cancel functions for containers placed here.
	running map[ContainerID]context.CancelFunc
}

func (n *node) fits(r Resource) bool {
	return n.alive &&
		n.used.VCores+r.VCores <= n.capacity.VCores &&
		n.used.MemoryMB+r.MemoryMB <= n.capacity.MemoryMB
}

// ContainerID identifies a container within the cluster.
type ContainerID struct {
	App string
	Seq int
}

func (id ContainerID) String() string { return fmt.Sprintf("%s#%d", id.App, id.Seq) }

// ContainerStatus is the terminal report for one container attempt.
type ContainerStatus struct {
	ID     ContainerID
	Node   string
	Err    error // nil on clean exit
	Killed bool  // true when the node died or the app was stopped
}

// RunFunc is the work a container executes. It should return promptly when
// ctx is cancelled.
type RunFunc func(ctx context.Context) error

// ContainerSpec describes one container an application wants.
type ContainerSpec struct {
	Resource Resource
	Run      RunFunc
	// MaxRestarts bounds automatic restarts after failures; the default 0
	// means never restart.
	MaxRestarts int
}

// Cluster is the resource manager plus node managers.
type Cluster struct {
	mu    sync.Mutex
	nodes map[string]*node
	apps  map[string]*Application
}

// NewCluster returns an empty cluster.
func NewCluster() *Cluster {
	return &Cluster{nodes: map[string]*node{}, apps: map[string]*Application{}}
}

// AddNode registers a node manager with the given capacity.
func (c *Cluster) AddNode(id string, capacity Resource) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes[id] = &node{
		id:       id,
		capacity: capacity,
		alive:    true,
		running:  map[ContainerID]context.CancelFunc{},
	}
}

// allocate picks the live node with the most free vcores that fits r.
func (c *Cluster) allocate(r Resource) (*node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.nodes) == 0 {
		return nil, ErrClusterEmpty
	}
	var best *node
	bestFree := -1
	// Deterministic tie-break: iterate sorted IDs.
	ids := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := c.nodes[id]
		if !n.fits(r) {
			continue
		}
		free := n.capacity.VCores - n.used.VCores
		if free > bestFree {
			best, bestFree = n, free
		}
	}
	if best == nil {
		return nil, ErrNoCapacity
	}
	best.used.VCores += r.VCores
	best.used.MemoryMB += r.MemoryMB
	return best, nil
}

func (c *Cluster) release(n *node, r Resource, id ContainerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n.used.VCores -= r.VCores
	n.used.MemoryMB -= r.MemoryMB
	delete(n.running, id)
}

// KillNode marks a node dead and cancels every container on it. Application
// masters observe the failures and restart containers elsewhere.
func (c *Cluster) KillNode(id string) error {
	c.mu.Lock()
	n, ok := c.nodes[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	n.alive = false
	cancels := make([]context.CancelFunc, 0, len(n.running))
	for _, cancel := range n.running {
		cancels = append(cancels, cancel)
	}
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	return nil
}

// Application is the application-master view of one submitted job.
type Application struct {
	ID string

	cluster *Cluster
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	statuses []ContainerStatus
	restarts map[ContainerID]int
	done     bool
}

// Submit creates an application and launches one container per spec. Each
// container that fails (or whose node dies) is restarted on a node with
// capacity, up to its restart budget.
func (c *Cluster) Submit(ctx context.Context, appID string, specs []ContainerSpec) (*Application, error) {
	appCtx, cancel := context.WithCancel(ctx)
	app := &Application{
		ID:       appID,
		cluster:  c,
		ctx:      appCtx,
		cancel:   cancel,
		restarts: map[ContainerID]int{},
	}
	c.mu.Lock()
	c.apps[appID] = app
	c.mu.Unlock()

	for i, spec := range specs {
		id := ContainerID{App: appID, Seq: i}
		if err := app.launch(id, spec); err != nil {
			app.Stop()
			return nil, err
		}
	}
	return app, nil
}

// launch places one container attempt; on failure it recursively relaunches
// until the restart budget is exhausted.
func (a *Application) launch(id ContainerID, spec ContainerSpec) error {
	n, err := a.cluster.allocate(spec.Resource)
	if err != nil {
		return fmt.Errorf("launching %s: %w", id, err)
	}
	runCtx, runCancel := context.WithCancel(a.ctx)
	a.cluster.mu.Lock()
	n.running[id] = runCancel
	a.cluster.mu.Unlock()

	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		err := spec.Run(runCtx)
		killed := runCtx.Err() != nil
		runCancel()
		a.cluster.release(n, spec.Resource, id)

		a.mu.Lock()
		a.statuses = append(a.statuses, ContainerStatus{ID: id, Node: n.id, Err: err, Killed: killed})
		done := a.done
		a.mu.Unlock()

		appStopped := a.ctx.Err() != nil
		if done || appStopped || (err == nil && !killed) {
			return // the application stopped, or a clean exit
		}
		// Failure or node death: restart if budget remains.
		a.mu.Lock()
		a.restarts[id]++
		over := a.restarts[id] > spec.MaxRestarts
		a.mu.Unlock()
		if over {
			a.mu.Lock()
			a.statuses = append(a.statuses, ContainerStatus{ID: id, Node: n.id, Err: ErrGiveUp})
			a.mu.Unlock()
			return
		}
		if lerr := a.launch(id, spec); lerr != nil {
			a.mu.Lock()
			a.statuses = append(a.statuses, ContainerStatus{ID: id, Node: n.id, Err: lerr})
			a.mu.Unlock()
		}
	}()
	return nil
}

// Wait blocks until all containers (including restarts) finish.
func (a *Application) Wait() []ContainerStatus {
	a.wg.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.done = true
	out := make([]ContainerStatus, len(a.statuses))
	copy(out, a.statuses)
	return out
}

// Stop cancels all containers and waits for them to unwind.
func (a *Application) Stop() {
	a.mu.Lock()
	a.done = true
	a.mu.Unlock()
	a.cancel()
	a.wg.Wait()
}

// Restarts reports how many restarts each container consumed.
func (a *Application) Restarts() map[ContainerID]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[ContainerID]int, len(a.restarts))
	for k, v := range a.restarts {
		out[k] = v
	}
	return out
}
