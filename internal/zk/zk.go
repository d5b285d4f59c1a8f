// Package zk implements the small hierarchical metadata store modeled on
// Zookeeper that SamzaSQL uses to hand the query text from the shell-side
// planner to the task-side planner (§4.1–4.2): znodes addressed by
// slash-separated paths, created once and read back.
package zk

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Errors returned by store operations.
var (
	ErrNoNode      = errors.New("zk: node does not exist")
	ErrNodeExists  = errors.New("zk: node already exists")
	ErrInvalidPath = errors.New("zk: invalid path")
)

type node struct {
	data     []byte
	children map[string]*node
}

// Store is the in-process Zookeeper analog. Safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	root *node
}

// NewStore returns an empty store containing only the root node "/".
func NewStore() *Store {
	return &Store{root: &node{children: map[string]*node{}}}
}

// splitPath validates and splits "/a/b/c" into ["a","b","c"].
func splitPath(path string) ([]string, error) {
	if path == "/" {
		return nil, nil
	}
	if !strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") {
		return nil, fmt.Errorf("%w: %q", ErrInvalidPath, path)
	}
	parts := strings.Split(path[1:], "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("%w: %q", ErrInvalidPath, path)
		}
	}
	return parts, nil
}

func (s *Store) lookup(parts []string) (*node, bool) {
	n := s.root
	for _, p := range parts {
		c, ok := n.children[p]
		if !ok {
			return nil, false
		}
		n = c
	}
	return n, true
}

// Create makes a new node at path with data. Parent must exist.
func (s *Store) Create(path string, data []byte) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot create root", ErrInvalidPath)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	parent, ok := s.lookup(parts[:len(parts)-1])
	if !ok {
		return fmt.Errorf("%w: parent of %q", ErrNoNode, path)
	}
	name := parts[len(parts)-1]
	if _, dup := parent.children[name]; dup {
		return fmt.Errorf("%w: %q", ErrNodeExists, path)
	}
	parent.children[name] = &node{
		data:     append([]byte(nil), data...),
		children: map[string]*node{},
	}
	return nil
}

// CreateRecursive creates all missing ancestors, then the node. It is
// idempotent on intermediate nodes but fails if the leaf exists.
func (s *Store) CreateRecursive(path string, data []byte) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	prefix := ""
	for i := 0; i < len(parts)-1; i++ {
		prefix += "/" + parts[i]
		if err := s.Create(prefix, nil); err != nil && !errors.Is(err, ErrNodeExists) {
			return err
		}
	}
	return s.Create(path, data)
}

// Get returns a copy of the node's data.
func (s *Store) Get(path string) ([]byte, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.lookup(parts)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoNode, path)
	}
	return append([]byte(nil), n.data...), nil
}
