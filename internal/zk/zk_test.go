package zk

import (
	"errors"
	"testing"
)

func TestCreateGet(t *testing.T) {
	s := NewStore()
	if err := s.Create("/a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	data, err := s.Get("/a")
	if err != nil || string(data) != "1" {
		t.Fatalf("Get: %q %v", data, err)
	}
	// Get hands out a copy.
	data[0] = 'x'
	if again, _ := s.Get("/a"); string(again) != "1" {
		t.Fatalf("Get after mutating a returned copy: %q", again)
	}
	if _, err := s.Get("/missing"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("Get missing: %v", err)
	}
}

func TestCreateErrors(t *testing.T) {
	s := NewStore()
	if err := s.Create("/a/b", nil); !errors.Is(err, ErrNoNode) {
		t.Fatalf("orphan create: %v", err)
	}
	if err := s.Create("bad", nil); !errors.Is(err, ErrInvalidPath) {
		t.Fatalf("bad path: %v", err)
	}
	if err := s.Create("/a/", nil); !errors.Is(err, ErrInvalidPath) {
		t.Fatalf("trailing slash: %v", err)
	}
	if err := s.Create("/", nil); !errors.Is(err, ErrInvalidPath) {
		t.Fatalf("create root: %v", err)
	}
	if err := s.Create("/a", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/a", nil); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestCreateRecursive(t *testing.T) {
	s := NewStore()
	if err := s.CreateRecursive("/x/y/z", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	data, err := s.Get("/x/y/z")
	if err != nil || string(data) != "deep" {
		t.Fatalf("Get deep: %q %v", data, err)
	}
	// Intermediate nodes tolerated on a second call.
	if err := s.CreateRecursive("/x/y/w", []byte("sibling")); err != nil {
		t.Fatal(err)
	}
	if data, err := s.Get("/x/y/w"); err != nil || string(data) != "sibling" {
		t.Fatalf("Get sibling: %q %v", data, err)
	}
	// The leaf itself must be new.
	if err := s.CreateRecursive("/x/y/z", nil); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("recreate leaf: %v", err)
	}
}
