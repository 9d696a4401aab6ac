package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"roborebound/internal/cryptolite"
	"roborebound/internal/wire"
)

func cacheKeyOf(t *testing.T, a *wire.AuditRequest) [32]byte {
	t.Helper()
	head, tail, err := wire.SplitAuditRequest(a.Encode())
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	return auditKey(head.Auditee, head.Req.T, tail)
}

func testAuditRequest() wire.AuditRequest {
	a := wire.AuditRequest{
		Auditee:         7,
		Auditor:         3,
		Req:             wire.TokenRequest{Auditee: 7, Auditor: 3, T: 512},
		StartCheckpoint: []byte("ckpt-start"),
		StartTokens:     []wire.Token{{Auditor: 2, Auditee: 7, T: 300}},
		EndCheckpoint:   []byte("ckpt-end"),
		Segment:         []byte("segment-entries"),
	}
	for i := range a.Req.Mac {
		a.Req.Mac[i] = byte(i)
	}
	return a
}

func TestAuditCacheStoreLookup(t *testing.T) {
	c := NewAuditCache(4)
	var h cryptolite.ChainHash
	for i := range h {
		h[i] = byte(i * 3)
	}
	key := cacheKeyOf(t, &wire.AuditRequest{Auditee: 1, Req: wire.TokenRequest{T: 9}})

	if _, ok := c.Lookup(key); ok {
		t.Fatal("empty cache hit")
	}
	c.Store(key, AuditVerdict{OK: true, HCkpt: h})
	v, ok := c.Lookup(key)
	if !ok || !v.OK || v.HCkpt != h {
		t.Fatalf("lookup = %+v, %v; want stored verdict", v, ok)
	}
	if hits, misses := c.HitsMisses(); hits != 1 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
	// Overwriting an existing key updates in place without eviction.
	c.Store(key, AuditVerdict{OK: false})
	if v, ok := c.Lookup(key); !ok || v.OK {
		t.Error("overwrite did not update verdict")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestAuditCacheFIFOEviction(t *testing.T) {
	c := NewAuditCache(2)
	keys := make([][32]byte, 3)
	for i := range keys {
		keys[i] = auditKey(wire.RobotID(i+1), 0, nil)
		c.Store(keys[i], AuditVerdict{OK: true})
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want cap 2", c.Len())
	}
	if _, ok := c.Lookup(keys[0]); ok {
		t.Error("oldest entry not evicted")
	}
	for _, k := range keys[1:] {
		if _, ok := c.Lookup(k); !ok {
			t.Error("young entry evicted")
		}
	}
}

// TestAuditKeyIgnoresAuditorHead: the verdict is auditor-independent,
// so the f_max+1 per-auditor copies of one round's request — which
// differ only in the auditor ID and the token request addressed to it
// — must share one cache entry.
func TestAuditKeyIgnoresAuditorHead(t *testing.T) {
	a := testAuditRequest()
	b := testAuditRequest()
	b.Auditor = 4
	b.Req.Auditor = 4
	for i := range b.Req.Mac {
		b.Req.Mac[i] = byte(100 + i) // per-auditor MAC differs too
	}
	if cacheKeyOf(t, &a) != cacheKeyOf(t, &b) {
		t.Error("same round, different auditor: keys differ")
	}
}

// TestAuditKeyDiscriminates: every verdict-relevant field must change
// the key — a collision here would let one request reuse another's
// verdict.
func TestAuditKeyDiscriminates(t *testing.T) {
	base := testAuditRequest()
	baseKey := cacheKeyOf(t, &base)

	mutate := map[string]func(*wire.AuditRequest){
		"auditee":     func(a *wire.AuditRequest) { a.Auditee = 8; a.Req.Auditee = 8 },
		"reqT":        func(a *wire.AuditRequest) { a.Req.T++ },
		"fromBoot":    func(a *wire.AuditRequest) { a.FromBoot = true; a.StartCheckpoint = nil; a.StartTokens = nil },
		"start-ckpt":  func(a *wire.AuditRequest) { a.StartCheckpoint[0] ^= 1 },
		"start-token": func(a *wire.AuditRequest) { a.StartTokens[0].Mac[0] ^= 1 },
		"end-ckpt":    func(a *wire.AuditRequest) { a.EndCheckpoint[0] ^= 1 },
		"segment":     func(a *wire.AuditRequest) { a.Segment[len(a.Segment)-1] ^= 1 },
	}
	for name, mut := range mutate {
		a := testAuditRequest()
		mut(&a)
		if cacheKeyOf(t, &a) == baseKey {
			t.Errorf("%s: mutation did not change the cache key", name)
		}
	}
}

// TestAuditCacheStorageFollowsStores owns the logical-capacity /
// storage split: a default cache costs next to nothing until verdicts
// are stored (it used to zero a 4096-slot map, ~450 KB, per sim), yet
// it still evicts FIFO at DefaultAuditCacheCap and never holds more.
func TestAuditCacheStorageFollowsStores(t *testing.T) {
	const builds = 64
	caches := make([]*AuditCache, builds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range caches {
		caches[i] = NewAuditCache(0)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= 1024 {
		t.Errorf("NewAuditCache(0) allocates %d B before its first Store, want < 1 KB", per)
	}

	c := caches[0]
	key := func(i int) [32]byte { return auditKey(wire.RobotID(i), wire.Tick(i), nil) }
	for i := 0; i <= DefaultAuditCacheCap+1; i++ {
		c.Store(key(i), AuditVerdict{OK: true})
		if c.Len() > DefaultAuditCacheCap {
			t.Fatalf("after %d stores the cache holds %d verdicts, over its capacity of %d", i+1, c.Len(), DefaultAuditCacheCap)
		}
	}
	for _, evicted := range []int{0, 1} {
		if _, ok := c.Lookup(key(evicted)); ok {
			t.Errorf("verdict %d survived %d stores: not evicted FIFO at capacity", evicted, DefaultAuditCacheCap+2)
		}
	}
	for _, kept := range []int{2, DefaultAuditCacheCap + 1} {
		if _, ok := c.Lookup(key(kept)); !ok {
			t.Errorf("verdict %d evicted out of FIFO order", kept)
		}
	}
}

// TestAuditCacheEncodeStateFormat builds the snapshot blob by hand —
// capacity, cursor, count, (key, flag, checkpoint hash) in FIFO order,
// hit and miss tallies — and requires EncodeState to match it byte for
// byte, below capacity and after the ring has wrapped. The capacity
// field is the logical capacity (4096 for a default cache), whatever
// the map has grown to; RestoreState into a fresh cache round-trips.
func TestAuditCacheEncodeStateFormat(t *testing.T) {
	verdict := func(i int) AuditVerdict {
		v := AuditVerdict{OK: i%3 != 0}
		for j := range v.HCkpt {
			v.HCkpt[j] = byte(i + j)
		}
		return v
	}
	key := func(i int) [32]byte { return auditKey(wire.RobotID(i), wire.Tick(7*i), []byte{byte(i)}) }
	cases := []struct {
		name     string
		capacity int // as passed to NewAuditCache
		wantCap  uint32
		stores   int
		ring     []int // store indices in ring order after the stores
		next     uint32
	}{
		{"default-below-capacity", 0, DefaultAuditCacheCap, 5, []int{0, 1, 2, 3, 4}, 0},
		{"wrapped", 4, 4, 6, []int{4, 5, 2, 3}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewAuditCache(tc.capacity)
			for i := 0; i < tc.stores; i++ {
				c.Store(key(i), verdict(i))
			}
			c.Lookup(key(tc.stores - 1)) // one hit
			c.Lookup(key(1000))          // one miss

			var want []byte
			want = binary.BigEndian.AppendUint32(want, tc.wantCap)
			want = binary.BigEndian.AppendUint32(want, tc.next)
			want = binary.BigEndian.AppendUint32(want, uint32(len(tc.ring)))
			for _, i := range tc.ring {
				k, v := key(i), verdict(i)
				want = append(want, k[:]...)
				if v.OK {
					want = append(want, 1)
				} else {
					want = append(want, 0)
				}
				want = append(want, v.HCkpt[:]...)
			}
			want = binary.BigEndian.AppendUint64(want, 1)
			want = binary.BigEndian.AppendUint64(want, 1)

			got := c.EncodeState()
			if !bytes.Equal(got, want) {
				t.Fatalf("EncodeState differs from the hand-built blob\n got %x\nwant %x", got, want)
			}
			restored := NewAuditCache(tc.capacity)
			if err := restored.RestoreState(got); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
			if again := restored.EncodeState(); !bytes.Equal(again, got) {
				t.Fatal("restored cache re-encodes differently")
			}
		})
	}
}
