// Package store provides the sweep server's content-addressed result
// store: an append-only blob store keyed by the canonical spec hash
// ("sha256:<hex>", see internal/spec). Because a cell's result bytes are a
// pure function of its canonical spec — the determinism contract — a hash
// fully identifies one immutable blob, so the store never needs
// versioning, invalidation or overwrite semantics: putting the same hash
// twice necessarily stores the same bytes. The contract holds within one
// simulator version: a change that gives a canonical spec new result bytes
// without moving its hash (DESIGN §7) leaves a Disk store written before
// it stale, so clear the store when upgrading across such a change. It
// holds cell results only; warm-state snapshots stay in memory with the
// sweep that seals them.
//
// Two implementations cover the deployment spectrum: Mem for tests and
// servers whose results may die with the process, Disk for servers whose
// results should survive a restart.
package store

import (
	"fmt"
	"sync"
)

// Store is a content-addressed blob store. Implementations must be safe
// for concurrent use.
type Store interface {
	// Get returns the blob stored under hash, or ok=false when absent.
	// Callers must not mutate the returned slice.
	Get(hash string) (blob []byte, ok bool, err error)
	// Put stores blob under hash. Re-putting an existing hash is a no-op
	// (the bytes are necessarily identical by the determinism contract).
	Put(hash string, blob []byte) error
	// Len reports the number of stored blobs.
	Len() (int, error)
}

// hashHexLen is the hex-digest length of a sha256 content hash.
const hashHexLen = 64

// CheckHash validates the "sha256:<64 lowercase hex>" shape shared by
// every store key. Disk rejects malformed hashes before they can touch
// the filesystem; Mem rejects them for symmetry so a bad key fails the
// same way everywhere.
func CheckHash(hash string) error {
	const prefix = "sha256:"
	if len(hash) != len(prefix)+hashHexLen || hash[:len(prefix)] != prefix {
		return fmt.Errorf("store: malformed content hash %q", hash)
	}
	for _, c := range hash[len(prefix):] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: malformed content hash %q", hash)
		}
	}
	return nil
}

// Mem is an in-memory Store. The zero value is ready to use.
type Mem struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Get implements Store.
func (s *Mem) Get(hash string) ([]byte, bool, error) {
	if err := CheckHash(hash); err != nil {
		return nil, false, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[hash]
	return b, ok, nil
}

// Put implements Store. The blob is copied, so callers may reuse their
// buffer.
func (s *Mem) Put(hash string, blob []byte) error {
	if err := CheckHash(hash); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[hash]; ok {
		return nil
	}
	if s.m == nil {
		s.m = make(map[string][]byte)
	}
	s.m[hash] = append([]byte(nil), blob...)
	return nil
}

// Len implements Store.
func (s *Mem) Len() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m), nil
}
