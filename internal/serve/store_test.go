package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestArtifactStoreMemoryAndSpill(t *testing.T) {
	dir := t.TempDir()
	store, err := NewArtifactStore(StoreOptions{Dir: dir, MemLimit: 100})
	if err != nil {
		t.Fatalf("new store: %v", err)
	}

	small := []byte("small artifact")
	big := bytes.Repeat([]byte("x"), 500)
	if _, err := store.Put("t-1", "small.json", small); err != nil {
		t.Fatalf("put small: %v", err)
	}
	info, err := store.Put("t-1", "big.bin", big)
	if err != nil {
		t.Fatalf("put big: %v", err)
	}
	if info.Size != int64(len(big)) || info.SHA256 == "" {
		t.Fatalf("big descriptor wrong: %+v", info)
	}

	// The big one spilled to disk, the small one did not.
	if _, err := os.Stat(filepath.Join(dir, "t-1.big.bin")); err != nil {
		t.Errorf("big artifact not spilled: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "t-1.small.json")); err == nil {
		t.Error("small artifact spilled despite being under the memory limit")
	}

	for name, want := range map[string][]byte{"small.json": small, "big.bin": big} {
		got, err := store.Get("t-1", name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s round trip mismatch", name)
		}
	}

	list := store.List("t-1")
	if len(list) != 2 || list[0].Name != "big.bin" || list[1].Name != "small.json" {
		t.Fatalf("list = %+v, want sorted [big.bin small.json]", list)
	}
	if got := store.TotalBytes(); got != int64(len(small)+len(big)) {
		t.Errorf("TotalBytes = %d, want %d", got, len(small)+len(big))
	}

	store.DeleteJob("t-1")
	if store.TotalBytes() != 0 {
		t.Errorf("TotalBytes after delete = %d", store.TotalBytes())
	}
	if _, err := store.Get("t-1", "big.bin"); err == nil {
		t.Error("get succeeded after DeleteJob")
	}
	if _, err := os.Stat(filepath.Join(dir, "t-1.big.bin")); err == nil {
		t.Error("spilled file survived DeleteJob")
	}
}

// TestArtifactStoreGetSharesBlob (run it under -race): Get hands out
// the stored blob itself, allocating nothing, and a blob already handed
// out stays intact while other jobs' artifacts are put and deleted
// around it, and after its own job is deleted.
func TestArtifactStoreGetSharesBlob(t *testing.T) {
	store, err := NewArtifactStore(StoreOptions{})
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	want := bytes.Repeat([]byte("metrics "), 400)
	if _, err := store.Put("kept-1", "metrics.json", want); err != nil {
		t.Fatalf("put: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { store.Get("kept-1", "metrics.json") }); allocs != 0 {
		t.Errorf("Get of an in-memory blob makes %v allocations, want 0 (no copy)", allocs)
	}

	const readers, writers, rounds = 4, 2, 200
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, err := store.Get("kept-1", "metrics.json")
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent Get: %d bytes, %v; want the stored blob", len(got), err)
					return
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("churn%d-%d", g, i)
				if _, err := store.Put(id, "events.ndjson", bytes.Repeat([]byte{byte(i)}, 256)); err != nil {
					t.Errorf("put %s: %v", id, err)
					return
				}
				store.DeleteJob(id)
			}
		}()
	}
	wg.Wait()

	held, err := store.Get("kept-1", "metrics.json")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if _, err := store.Put("kept-1", "metrics.json", []byte("replaced")); err != nil {
		t.Fatalf("replace: %v", err)
	}
	store.DeleteJob("kept-1")
	if !bytes.Equal(held, want) {
		t.Error("a blob handed out by Get changed when its artifact was replaced and deleted")
	}
	if store.TotalBytes() != 0 {
		t.Errorf("TotalBytes after every job was deleted = %d", store.TotalBytes())
	}
}

func TestArtifactStoreTotalBound(t *testing.T) {
	store, err := NewArtifactStore(StoreOptions{TotalLimit: 1000})
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	if _, err := store.Put("t-1", "a", bytes.Repeat([]byte{1}, 600)); err != nil {
		t.Fatalf("first put: %v", err)
	}
	if _, err := store.Put("t-1", "b", bytes.Repeat([]byte{2}, 600)); err == nil {
		t.Fatal("put beyond TotalLimit succeeded")
	}
	// Overwriting frees the old bytes first.
	if _, err := store.Put("t-1", "a", bytes.Repeat([]byte{3}, 900)); err != nil {
		t.Fatalf("overwrite put: %v", err)
	}
	if got := store.TotalBytes(); got != 900 {
		t.Errorf("TotalBytes = %d, want 900", got)
	}
}

func TestArtifactStoreRejectsBadNames(t *testing.T) {
	store, err := NewArtifactStore(StoreOptions{})
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	if _, err := store.Put("../evil", "a", nil); err == nil {
		t.Error("accepted a path-traversal job id")
	}
	if _, err := store.Put("t-1", "../evil", nil); err == nil {
		t.Error("accepted a path-traversal artifact name")
	}
}
