// Package spatial provides a deterministic uniform-grid index over 2-D
// points, built for the simulator's two quadratic hot paths: radio
// delivery (which robots are within decode range of a transmitter?)
// and collision detection (which bodies are within the crash radius?).
//
// Determinism is the design constraint, not a nicety: the simulation
// promises byte-identical runs for identical (scenario, seed), and the
// callers' tests hold the grid paths to brute-force oracles (and the
// root suite to a record of the brute-force run). The grid therefore
// avoids every source of iteration-order nondeterminism:
//
//   - No maps. Cells are flat slices sorted by (cell key, member ID),
//     with a parallel table of unique keys for binary search. Queries
//     never range over a Go map, so reboundlint's determinism analyzer
//     passes with no //rebound: hatches.
//   - Query results are returned sorted ascending by member ID,
//     independent of insertion order and cell layout.
//   - No wall clock, no global RNG, no allocation-dependent behavior.
//
// Correctness contract: Within(center, r) returns exactly the members
// whose squared distance to center does not exceed r² under the
// predicate !(d² > r²) — the same float comparison a brute-force scan
// would make, NaN included (a NaN distance is *not* greater than r²,
// so such members are returned; the radio's power check has the same
// conservative semantics). The grid is a pure accelerator: it must
// never change which members pass the predicate, only how many are
// examined. Members at non-finite positions live in a "loose" bucket
// that every query scans, so they can never be lost to cell-coordinate
// overflow.
package spatial

import (
	"math"
	"math/bits"
	"slices"

	"roborebound/internal/geom"
)

// Member is one indexed point. IDs must be unique within a grid; the
// callers index robots by wire.RobotID or bodies by slice position.
type Member struct {
	ID  int32
	Pos geom.Vec2
}

type slot struct {
	key uint64
	m   Member
}

// maxCoord bounds cell coordinates. float→int conversion of an
// out-of-range value is unspecified in Go, so coordinates saturate
// here first; 2^30 cells per axis is far beyond any scenario, and
// everything past the clamp lands in the same boundary cell (which a
// query near the boundary also reaches), preserving the superset
// property.
const maxCoord = 1 << 30

// Grid is a uniform-cell spatial index. Typical use:
//
//	g.Reset(cellSize)
//	g.Grow(n) // optional: the member count, when known up front
//	for each point: g.Add(id, pos)
//	g.Build()
//	for each query: buf = g.Within(center, r, buf[:0])
//
// A Grid retains its backing arrays across Reset, so per-tick rebuilds
// are allocation-free at steady state.
type Grid struct {
	cell float64
	inv  float64

	slots []slot   // finite-position members, sorted by (cell key, ID) after Build
	keys  []uint64 // unique cell keys, ascending; parallel to spans
	spans [][2]int32
	loose []Member // non-finite positions: candidates for every query
	built bool

	// byAdd is the finite-position members in Add order, which Build
	// leaves alone. While idsOrdered holds that is ascending ID order,
	// and a linear scan of it is born sorted (see scanAll).
	byAdd []Member

	// idsOrdered tracks whether Add calls arrived in nondecreasing ID
	// order (both hot callers add robots/bodies that way). When true,
	// Build may radix-sort by cell key alone: the stable scatter keeps
	// ties in Add order, which then already is ID order.
	idsOrdered bool
	lastSlotID int32

	// Radix-sort scratch, retained across builds.
	tmpSlots  []slot
	ck, cktmp []uint32
}

// Reset clears the grid and sets the cell size. Panics unless cellSize
// is positive and finite (a degenerate cell size silently collapsing
// every point into one cell would hide a caller bug).
func (g *Grid) Reset(cellSize float64) {
	if !(cellSize > 0) || math.IsInf(cellSize, 0) {
		panic("spatial: cell size must be positive and finite")
	}
	g.cell = cellSize
	g.inv = 1 / cellSize
	g.slots = g.slots[:0]
	g.keys = g.keys[:0]
	g.spans = g.spans[:0]
	g.loose = g.loose[:0]
	g.byAdd = g.byAdd[:0]
	g.built = false
	g.idsOrdered = true
	g.lastSlotID = math.MinInt32
}

// Grow makes room for n members, so the Adds and the Build that follow
// allocate each backing array at most once instead of up a doubling
// ladder that a short run never amortizes. Call between Reset and the
// first Add.
func (g *Grid) Grow(n int) {
	g.slots = slices.Grow(g.slots, n)
	g.byAdd = slices.Grow(g.byAdd, n)
	g.keys = slices.Grow(g.keys, n)
	g.spans = slices.Grow(g.spans, n)
}

// Len returns the number of indexed members.
func (g *Grid) Len() int { return len(g.slots) + len(g.loose) }

// coordClamp converts a floored cell coordinate to int32, saturating
// at ±maxCoord. NaN (only reachable from a non-finite input, which the
// callers route elsewhere) maps to 0 — an arbitrary but fixed choice.
func coordClamp(f float64) int32 {
	switch {
	case f >= maxCoord:
		return maxCoord
	case f <= -maxCoord:
		return -maxCoord
	case math.IsNaN(f):
		return 0
	}
	return int32(f)
}

// cellCoord maps one axis position to its cell coordinate. The float
// multiply and floor are monotone non-decreasing, which the ±1 query
// ring in Within relies on.
func (g *Grid) cellCoord(v float64) int32 {
	return coordClamp(math.Floor(v * g.inv))
}

// coordBias shifts clamped coordinates into unsigned range before
// packing, so key order is lexicographic (cx, cy) order: all keys of
// one grid column form one contiguous key range, which Within scans
// with a single binary search per column.
const coordBias = 1 << 30

func pack(cx, cy int32) uint64 {
	ux := uint32(int64(cx) + coordBias)
	uy := uint32(int64(cy) + coordBias)
	return uint64(ux)<<32 | uint64(uy)
}

// Add indexes one member. Call between Reset and Build.
func (g *Grid) Add(id int32, pos geom.Vec2) {
	if g.built {
		panic("spatial: Add after Build (Reset first)")
	}
	if !pos.IsFinite() {
		g.loose = append(g.loose, Member{ID: id, Pos: pos})
		return
	}
	if id < g.lastSlotID {
		g.idsOrdered = false
	}
	g.lastSlotID = id
	key := pack(g.cellCoord(pos.X), g.cellCoord(pos.Y))
	g.slots = append(g.slots, slot{key: key, m: Member{ID: id, Pos: pos}})
	g.byAdd = append(g.byAdd, Member{ID: id, Pos: pos})
}

// Build finalizes the index: sorts members into (cell key, ID) order
// and materializes the unique-key span table.
func (g *Grid) Build() {
	g.sortSlots()
	slices.SortFunc(g.loose, memberByID)
	for i := 0; i < len(g.slots); {
		j := i + 1
		for j < len(g.slots) && g.slots[j].key == g.slots[i].key {
			j++
		}
		g.keys = append(g.keys, g.slots[i].key)
		g.spans = append(g.spans, [2]int32{int32(i), int32(j)})
		i = j
	}
	g.built = true
}

// sortSlots puts g.slots into (cell key, ID) order. The per-tick
// rebuild makes this the most expensive step of Build, so when the
// members arrived in ID order and the occupied region is compact it
// uses a two-pass stable radix sort on rebased cell keys instead of a
// comparison sort; both paths produce the identical ordering, because
// key ties under the stable radix keep Add order, which idsOrdered
// guarantees is ID order.
func (g *Grid) sortSlots() {
	if g.idsOrdered && g.radixSortSlots() {
		return
	}
	slices.SortFunc(g.slots, func(a, b slot) int {
		switch {
		case a.key != b.key:
			if a.key < b.key {
				return -1
			}
			return 1
		case a.m.ID != b.m.ID:
			if a.m.ID < b.m.ID {
				return -1
			}
			return 1
		}
		return 0
	})
}

// radixBits is the digit width of one radix pass; two passes cover any
// occupied region of up to 2^(2·radixBits) rebased cells.
const radixBits = 11

// radixSortSlots stable-sorts g.slots by cell key when the occupied
// bounding box is small enough for two counting passes, reporting
// whether it did. Rebasing to the occupied box keeps the compact key
// order-isomorphic to the packed key: compact = (ux−minUx)<<bitsY |
// (uy−minUy) compares exactly like (ux, uy) lexicographic order, which
// is packed-key order.
func (g *Grid) radixSortSlots() bool {
	n := len(g.slots)
	if n < 48 {
		return false // comparison sort wins on tiny builds
	}
	minX, minY := uint32(math.MaxUint32), uint32(math.MaxUint32)
	maxX, maxY := uint32(0), uint32(0)
	for i := range g.slots {
		x, y := uint32(g.slots[i].key>>32), uint32(g.slots[i].key)
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	bitsY := bits.Len32(maxY - minY)
	totalBits := bits.Len32(maxX-minX) + bitsY
	if totalBits > 2*radixBits {
		return false // population too spread out for two passes
	}
	if cap(g.tmpSlots) < n {
		g.tmpSlots = make([]slot, n)
		g.ck = make([]uint32, n)
		g.cktmp = make([]uint32, n)
	}
	src, dst := g.slots, g.tmpSlots[:n]
	ck, cktmp := g.ck[:n], g.cktmp[:n]
	for i := range src {
		x, y := uint32(src[i].key>>32), uint32(src[i].key)
		ck[i] = (x-minX)<<bitsY | (y - minY)
	}
	for shift := 0; shift < totalBits; shift += radixBits {
		var hist [1 << radixBits]int32
		for _, k := range ck {
			hist[(k>>shift)&(1<<radixBits-1)]++
		}
		var sum int32
		for d := range hist {
			hist[d], sum = sum, sum+hist[d]
		}
		for i, s := range src {
			d := (ck[i] >> shift) & (1<<radixBits - 1)
			dst[hist[d]] = s
			cktmp[hist[d]] = ck[i]
			hist[d]++
		}
		src, dst = dst, src
		ck, cktmp = cktmp, ck
	}
	if &src[0] != &g.slots[0] {
		copy(g.slots, src)
	}
	return true
}

func memberByID(a, b Member) int {
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// Within returns every member m with !(DistSq(m.Pos, center) > r*r),
// ascending by ID. buf is scratch storage: its contents are discarded
// and its backing array reused for the result.
//
// Superset-before-filter argument for the cell walk: a member passing
// the predicate has float d² ≤ r², hence per-axis real offset at most
// r·(1+4ε) — within one ulp-scaled sliver of r, astronomically smaller
// than a cell for any coordinate the int32 clamp admits (|coord| ≤
// 2^30 ⇒ ε·|x| ≤ 2⁻²²·cell). cellCoord is monotone, so every such
// member's cell lies inside [cellCoord(center±r) ∓ 1] per axis — the
// walked box. Members beyond the clamp share the saturated boundary
// cell with the query edge. Non-finite centers, non-finite radii, and
// query boxes wider than the population fall back to a linear scan,
// which is the brute-force predicate by construction.
func (g *Grid) Within(center geom.Vec2, r float64, buf []Member) []Member {
	if !g.built {
		panic("spatial: Within before Build")
	}
	out := buf[:0]
	rr := r * r
	if !center.IsFinite() || math.IsNaN(r) || math.IsInf(r, 0) {
		return g.scanAll(center, rr, out)
	}
	cx0 := coordClamp(math.Floor((center.X-r)*g.inv)) - 1
	cx1 := coordClamp(math.Floor((center.X+r)*g.inv)) + 1
	cy0 := coordClamp(math.Floor((center.Y-r)*g.inv)) - 1
	cy1 := coordClamp(math.Floor((center.Y+r)*g.inv)) + 1
	// A box with more cells than occupied cells costs more to walk
	// than scanning every member once.
	if boxCells := (int64(cx1-cx0) + 1) * (int64(cy1-cy0) + 1); boxCells > int64(len(g.keys)) {
		return g.scanAll(center, rr, out)
	}
	for cx := cx0; cx <= cx1; cx++ {
		lo, hi := pack(cx, cy0), pack(cx, cy1)
		i, _ := slices.BinarySearch(g.keys, lo)
		for ; i < len(g.keys) && g.keys[i] <= hi; i++ {
			sp := g.spans[i]
			for _, s := range g.slots[sp[0]:sp[1]] {
				if s.m.Pos.DistSq(center) > rr {
					continue
				}
				out = append(out, s.m)
			}
		}
	}
	for _, m := range g.loose {
		if m.Pos.DistSq(center) > rr {
			continue // never true for NaN distances: those stay in
		}
		out = append(out, m)
	}
	slices.SortFunc(out, memberByID)
	return out
}

// NearPairs appends to buf every unordered pair of finite-position
// members whose cell coordinates differ by at most one per axis —
// a superset of every pair with DistSq < maxDist², the form collision
// detection needs. Each pair appears exactly once as {lower ID,
// higher ID}; the overall order is unspecified (callers that need a
// deterministic visit order sort the result, which is cheap because
// candidate pairs are sparse). buf is scratch: contents discarded,
// backing array reused.
//
// The one-cell reach is only sound when 2·maxDist ≤ cell, so NearPairs
// panics otherwise: then per-axis separation of a qualifying pair is
// at most cell/2 in reals, and the computed cell coordinates — one
// rounding each of x·inv, |x·inv| ≤ 2^30 admitted by the clamp — differ
// by at most 0.5 + 2⁻²¹ < 1 before flooring, so the floors differ by at
// most one. Saturation at the clamp only moves coordinates closer
// together. Members at non-finite positions are excluded by
// construction: their distance to anything is +Inf or NaN, never
// < a finite maxDist², so a strict less-than predicate can never
// accept them (note this differs from Within's !(d² > r²) contract,
// which NaN passes).
//
// Unlike Within there is no distance filter here: the caller applies
// its own predicate, so the grid cannot disagree with brute force
// about boundary floats.
//
// An unbounded reach (2·maxDist = +Inf) has no cell size that covers
// it: like Within on a non-finite radius it falls back to the linear
// form, every pair of finite-position members.
func (g *Grid) NearPairs(maxDist float64, buf [][2]int32) [][2]int32 {
	if !g.built {
		panic("spatial: NearPairs before Build")
	}
	out := buf[:0]
	if math.IsInf(2*maxDist, 1) {
		for i, a := range g.byAdd {
			for _, b := range g.byAdd[i+1:] {
				out = append(out, [2]int32{min(a.ID, b.ID), max(a.ID, b.ID)})
			}
		}
		return out
	}
	if !(2*maxDist <= g.cell) {
		panic("spatial: NearPairs requires 2*maxDist <= cell size")
	}
	cross := func(a, b int) {
		sa, sb := g.spans[a], g.spans[b]
		for i := sa[0]; i < sa[1]; i++ {
			ida := g.slots[i].m.ID
			for j := sb[0]; j < sb[1]; j++ {
				idb := g.slots[j].m.ID
				if ida < idb {
					out = append(out, [2]int32{ida, idb})
				} else {
					out = append(out, [2]int32{idb, ida})
				}
			}
		}
	}
	n := len(g.keys)
	for ci := 0; ci < n; ci++ {
		sp := g.spans[ci]
		for i := sp[0]; i < sp[1]; i++ {
			for j := i + 1; j < sp[1]; j++ {
				out = append(out, [2]int32{g.slots[i].m.ID, g.slots[j].m.ID})
			}
		}
		// Same column, next row: uy never reaches 2^32−1 (coordinates
		// are clamped to ±2^30 before biasing), so key+1 stays in the
		// column.
		if ci+1 < n && g.keys[ci+1] == g.keys[ci]+1 {
			cross(ci, ci+1)
		}
	}
	// Next column, rows −1..+1: for each direction the target keys are
	// strictly increasing with ci, so one merge walk finds all matches
	// without binary searches.
	for _, dy := range [3]uint64{^uint64(0), 0, 1} { // −1, 0, +1 in two's complement
		delta := uint64(1)<<32 + dy
		j := 0
		for ci := 0; ci < n; ci++ {
			target := g.keys[ci] + delta
			for j < n && g.keys[j] < target {
				j++
			}
			if j < n && g.keys[j] == target {
				cross(ci, j)
			}
		}
	}
	return out
}

// scanAll is the linear fallback: the predicate applied to every
// member, results sorted by ID. On a dense population every query is
// wider than the occupied cells and lands here, so when the members
// were added in ID order and none is loose it walks them in that order
// and skips the sort: the result is ascending by construction.
func (g *Grid) scanAll(center geom.Vec2, rr float64, out []Member) []Member {
	if g.idsOrdered && len(g.loose) == 0 {
		for _, m := range g.byAdd {
			if m.Pos.DistSq(center) > rr {
				continue
			}
			out = append(out, m)
		}
		return out
	}
	for _, s := range g.slots {
		if s.m.Pos.DistSq(center) > rr {
			continue
		}
		out = append(out, s.m)
	}
	for _, m := range g.loose {
		if m.Pos.DistSq(center) > rr {
			continue
		}
		out = append(out, m)
	}
	slices.SortFunc(out, memberByID)
	return out
}
