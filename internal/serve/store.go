package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// StoreOptions configures an ArtifactStore.
type StoreOptions struct {
	// Dir is the spillover directory. Empty disables spilling: every
	// artifact stays in memory.
	Dir string
	// MemLimit is the per-artifact in-memory threshold (default
	// 256 KiB); larger artifacts spill to Dir when set.
	MemLimit int64
	// TotalLimit bounds the store's total bytes, memory plus disk
	// (default 1 GiB). Put fails beyond it — the store never grows
	// unboundedly.
	TotalLimit int64
}

// artifact is one stored blob: in memory, or spilled to path.
type artifact struct {
	mem    []byte
	path   string
	size   int64
	sha256 string
}

// ArtifactStore holds job artifacts keyed by (jobID, name). Small
// blobs live in memory; blobs over MemLimit spill to disk when a
// spill directory is configured. The store enforces a hard total-byte
// bound and deletes a job's blobs when the scheduler evicts it.
type ArtifactStore struct {
	opts StoreOptions

	mu    sync.Mutex
	jobs  map[string]map[string]*artifact
	total int64
}

// NewArtifactStore builds a store; it creates the spill directory if
// one is configured.
func NewArtifactStore(opts StoreOptions) (*ArtifactStore, error) {
	if opts.MemLimit <= 0 {
		opts.MemLimit = 256 << 10
	}
	if opts.TotalLimit <= 0 {
		opts.TotalLimit = 1 << 30
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: create artifact spill dir: %w", err)
		}
	}
	return &ArtifactStore{opts: opts, jobs: make(map[string]map[string]*artifact)}, nil
}

// Put stores one artifact and returns its descriptor. The job ID and
// name must already be validated (the scheduler mints IDs; executors
// use fixed names).
func (s *ArtifactStore) Put(jobID, name string, data []byte) (ArtifactInfo, error) {
	if !validJobID(jobID) {
		return ArtifactInfo{}, fmt.Errorf("serve: invalid job id %q", jobID)
	}
	if !ValidArtifactName(name) {
		return ArtifactInfo{}, fmt.Errorf("serve: invalid artifact name %q", name)
	}
	sum := sha256.Sum256(data)
	a := &artifact{size: int64(len(data)), sha256: hex.EncodeToString(sum[:])}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.jobs[jobID][name]; ok {
		s.dropLocked(prev)
		delete(s.jobs[jobID], name)
	}
	if s.total+a.size > s.opts.TotalLimit {
		return ArtifactInfo{}, fmt.Errorf("serve: artifact store full (%d + %d bytes exceeds %d)",
			s.total, a.size, s.opts.TotalLimit)
	}
	if s.opts.Dir != "" && a.size > s.opts.MemLimit {
		a.path = filepath.Join(s.opts.Dir, jobID+"."+name)
		if err := os.WriteFile(a.path, data, 0o644); err != nil {
			return ArtifactInfo{}, fmt.Errorf("serve: spill artifact: %w", err)
		}
	} else {
		a.mem = append([]byte(nil), data...)
	}
	if s.jobs[jobID] == nil {
		s.jobs[jobID] = make(map[string]*artifact)
	}
	s.jobs[jobID][name] = a
	s.total += a.size
	return ArtifactInfo{Name: name, Size: a.size, SHA256: a.sha256}, nil
}

// Get returns an artifact's bytes, reading spilled blobs back from
// disk. An in-memory blob is returned as stored, not copied: Put writes
// a blob once and nothing writes it again, so the caller must treat the
// slice as read-only (DESIGN.md, "Byte ownership on the data path").
// Deleting or replacing the artifact leaves a slice already returned
// intact.
func (s *ArtifactStore) Get(jobID, name string) ([]byte, error) {
	s.mu.Lock()
	a, ok := s.jobs[jobID][name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: no artifact %q for job %q", name, jobID)
	}
	if a.path != "" {
		data, err := os.ReadFile(a.path)
		if err != nil {
			return nil, fmt.Errorf("serve: read spilled artifact: %w", err)
		}
		return data, nil
	}
	return a.mem, nil
}

// List returns a job's artifact descriptors sorted by name.
func (s *ArtifactStore) List(jobID string) []ArtifactInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.jobs[jobID]
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ArtifactInfo, 0, len(names))
	for _, name := range names {
		a := m[name]
		out = append(out, ArtifactInfo{Name: name, Size: a.size, SHA256: a.sha256})
	}
	return out
}

// DeleteJob drops all of a job's artifacts (scheduler eviction hook).
func (s *ArtifactStore) DeleteJob(jobID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.jobs[jobID]
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.dropLocked(m[name])
	}
	delete(s.jobs, jobID)
}

// TotalBytes reports the store's current footprint.
func (s *ArtifactStore) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

func (s *ArtifactStore) dropLocked(a *artifact) {
	s.total -= a.size
	if a.path != "" {
		os.Remove(a.path)
	}
}
