package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"roborebound/internal/obs/perf"
)

// span is one traced interval. The benchmark opens spans in its own
// files, around the calls it makes into each layer; spans inside the
// program under test are a later change. Group is the identifier the
// spans of one cell or one job share.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: no parent
	Group   string `json:"group"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs share the traced code paths
// without paying for them.
type spanLog struct {
	mu    sync.Mutex // jobs record spans from the client goroutines
	spans []span
}

// add records a finished interval and returns its id.
func (l *spanLog) add(parent int, group, name string, startNs, endNs int64) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Group: group, Name: name, StartNs: startNs, EndNs: endNs})
	return id
}

// begin opens a span now; the caller closes it with end.
func (l *spanLog) begin(parent int, group, name string) int {
	if l == nil {
		return 0
	}
	now := perf.Now()
	return l.add(parent, group, name, now, now)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := perf.Now()
	l.mu.Lock()
	l.spans[id-1].EndNs = now
	l.mu.Unlock()
}

// selfTimes fills SelfNs: a span's duration minus the part of its
// interval that its child spans cover. Children that overlap each
// other (cells of a parallel pass) are counted once.
func selfTimes(spans []span) {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.StartNs
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
}

// write computes self times and writes one JSON object per span.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	selfTimes(l.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
