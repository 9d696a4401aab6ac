package spatial

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/prng"
)

// bruteWithin is the reference implementation the grid must match
// exactly: the predicate !(d² > r²) over every member, sorted by ID.
func bruteWithin(members []Member, center geom.Vec2, r float64) []Member {
	rr := r * r
	var out []Member
	for _, m := range members {
		if m.Pos.DistSq(center) > rr {
			continue
		}
		out = append(out, m)
	}
	// Members are generated with ascending IDs, so out is sorted.
	return out
}

func buildGrid(t *testing.T, cell float64, members []Member) *Grid {
	t.Helper()
	g := &Grid{}
	g.Reset(cell)
	for _, m := range members {
		g.Add(m.ID, m.Pos)
	}
	g.Build()
	if g.Len() != len(members) {
		t.Fatalf("grid holds %d members, added %d", g.Len(), len(members))
	}
	return g
}

func assertSameMembers(t *testing.T, label string, got, want []Member) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d members, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		// Compare float bits, not values: NaN positions must round-trip.
		if got[i].ID != want[i].ID ||
			math.Float64bits(got[i].Pos.X) != math.Float64bits(want[i].Pos.X) ||
			math.Float64bits(got[i].Pos.Y) != math.Float64bits(want[i].Pos.Y) {
			t.Fatalf("%s: member %d: got %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestWithinMatchesBruteForceRandom is the core property test:
// randomized positions (clustered, grid-aligned, cell-edge, and
// NaN-adjacent), randomized radii and cell sizes — the grid must
// return exactly the brute-force candidate set, every time.
func TestWithinMatchesBruteForceRandom(t *testing.T) {
	rng := prng.New(0xBEEF)
	iters := 400
	if testing.Short() {
		iters = 80
	}
	for iter := 0; iter < iters; iter++ {
		cell := []float64{0.5, 1, 2.5, 10, 99.5, 1000}[rng.Intn(6)]
		n := rng.Intn(120)
		members := make([]Member, 0, n)
		for i := 0; i < n; i++ {
			var p geom.Vec2
			switch rng.Intn(5) {
			case 0: // uniform spread
				p = geom.V(rng.Range(-500, 500), rng.Range(-500, 500))
			case 1: // tight cluster (all in one or two cells)
				p = geom.V(100+rng.Range(0, cell/4), -30+rng.Range(0, cell/4))
			case 2: // exactly on cell boundaries
				p = geom.V(float64(rng.Intn(20)-10)*cell, float64(rng.Intn(20)-10)*cell)
			case 3: // one ulp around a cell boundary
				edge := float64(rng.Intn(10)) * cell
				switch rng.Intn(3) {
				case 0:
					edge = math.Nextafter(edge, math.Inf(1))
				case 1:
					edge = math.Nextafter(edge, math.Inf(-1))
				}
				p = geom.V(edge, edge)
			default: // occasionally non-finite
				vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), rng.Range(-50, 50)}
				p = geom.V(vals[rng.Intn(4)], vals[rng.Intn(4)])
			}
			members = append(members, Member{ID: int32(i), Pos: p})
		}
		g := buildGrid(t, cell, members)

		var buf []Member
		queries := 20
		for q := 0; q < queries; q++ {
			var center geom.Vec2
			if len(members) > 0 && rng.Intn(3) == 0 {
				center = members[rng.Intn(len(members))].Pos // query at a member
			} else {
				center = geom.V(rng.Range(-600, 600), rng.Range(-600, 600))
			}
			r := []float64{0, cell / 2, cell, 2 * cell, 7.3 * cell, 300}[rng.Intn(6)]
			buf = g.Within(center, r, buf)
			want := bruteWithin(members, center, r)
			assertSameMembers(t, "random query", buf, want)
		}
	}
}

// TestWithinExactBoundaryDistance pins the boundary semantics: a
// member at exactly distance r is inside (predicate is !(d² > r²)),
// one ulp beyond is outside — and members parked precisely on cell
// edges are never lost to floor() on either side.
func TestWithinExactBoundaryDistance(t *testing.T) {
	const cell = 2.0
	members := []Member{
		{ID: 1, Pos: geom.V(0, 0)},
		{ID: 2, Pos: geom.V(10, 0)},                         // exactly r away
		{ID: 3, Pos: geom.V(math.Nextafter(10, 11), 0)},     // one ulp outside
		{ID: 4, Pos: geom.V(math.Nextafter(10, 9), 0)},      // one ulp inside
		{ID: 5, Pos: geom.V(cell, cell)},                    // exactly on a cell corner
		{ID: 6, Pos: geom.V(-cell, -cell)},                  // negative cell corner
		{ID: 7, Pos: geom.V(math.Nextafter(cell, 0), cell)}, // ulp left of the corner
	}
	g := buildGrid(t, cell, members)
	got := g.Within(geom.V(0, 0), 10, nil)
	want := bruteWithin(members, geom.V(0, 0), 10)
	assertSameMembers(t, "boundary", got, want)
	for _, m := range got {
		if m.ID == 3 {
			t.Fatalf("member one ulp outside r was returned")
		}
	}
	has := func(id int32) bool {
		for _, m := range got {
			if m.ID == id {
				return true
			}
		}
		return false
	}
	for _, id := range []int32{1, 2, 4, 5, 6, 7} {
		if !has(id) {
			t.Fatalf("member %d (inside or exactly at r) missing from result", id)
		}
	}
}

// TestWithinNaNAndInfinite pins the conservative non-finite semantics:
// NaN-positioned members are always candidates (NaN distance is not >
// r²), infinite positions are infinitely far (excluded for finite r),
// and non-finite centers or radii return the brute-force set.
func TestWithinNaNAndInfinite(t *testing.T) {
	members := []Member{
		{ID: 1, Pos: geom.V(0, 0)},
		{ID: 2, Pos: geom.V(math.NaN(), 0)},
		{ID: 3, Pos: geom.V(math.Inf(1), 0)},
		{ID: 4, Pos: geom.V(3, 4)},
	}
	g := buildGrid(t, 1.0, members)

	got := g.Within(geom.V(0, 0), 5, nil)
	assertSameMembers(t, "NaN member", got, bruteWithin(members, geom.V(0, 0), 5))
	if len(got) != 3 || got[0].ID != 1 || got[1].ID != 2 || got[2].ID != 4 {
		t.Fatalf("want members {1 (origin), 2 (NaN), 4 (dist 5 exactly)}, got %v", got)
	}

	for _, tc := range []struct {
		name   string
		center geom.Vec2
		r      float64
	}{
		{"NaN center", geom.V(math.NaN(), 0), 5},
		{"Inf center", geom.V(math.Inf(-1), 2), 5},
		{"Inf radius", geom.V(1, 1), math.Inf(1)},
		{"NaN radius", geom.V(1, 1), math.NaN()},
		{"huge radius", geom.V(1, 1), 1e300},
	} {
		got := g.Within(tc.center, tc.r, nil)
		assertSameMembers(t, tc.name, got, bruteWithin(members, tc.center, tc.r))
	}
}

// TestWithinFarCoordinates exercises the int32 coordinate clamp: a
// population around ±2^40 (cells overflow int32 without the clamp)
// must still answer queries exactly.
func TestWithinFarCoordinates(t *testing.T) {
	const far = 1 << 40
	members := []Member{
		{ID: 1, Pos: geom.V(far, far)},
		{ID: 2, Pos: geom.V(far+3, far)},
		{ID: 3, Pos: geom.V(far+1000, far)},
		{ID: 4, Pos: geom.V(-far, -far)},
	}
	g := buildGrid(t, 1.0, members)
	for _, center := range []geom.Vec2{geom.V(far, far), geom.V(-far, -far), geom.V(0, 0)} {
		for _, r := range []float64{0, 5, 2 * far} {
			got := g.Within(center, r, nil)
			assertSameMembers(t, "far coords", got, bruteWithin(members, center, r))
		}
	}
}

// TestGridDeterministicAcrossInsertionOrder: the same member set added
// in different orders must produce identical query results.
func TestGridDeterministicAcrossInsertionOrder(t *testing.T) {
	rng := prng.New(42)
	members := make([]Member, 60)
	for i := range members {
		members[i] = Member{ID: int32(i), Pos: geom.V(rng.Range(-40, 40), rng.Range(-40, 40))}
	}
	g1 := buildGrid(t, 5, members)
	shuffled := append([]Member(nil), members...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	g2 := buildGrid(t, 5, shuffled)
	for q := 0; q < 50; q++ {
		center := geom.V(rng.Range(-50, 50), rng.Range(-50, 50))
		r := rng.Range(0, 30)
		a := g1.Within(center, r, nil)
		b := g2.Within(center, r, nil)
		assertSameMembers(t, "insertion order", a, b)
	}
}

// TestGridReuse: Reset must fully clear prior state, and a reused
// result buffer must not leak previous query results.
func TestGridReuse(t *testing.T) {
	g := &Grid{}
	g.Reset(1)
	g.Add(1, geom.V(0, 0))
	g.Add(2, geom.V(100, 100))
	g.Build()
	buf := g.Within(geom.V(0, 0), 500, nil)
	if len(buf) != 2 {
		t.Fatalf("want both members, got %v", buf)
	}
	g.Reset(2)
	g.Add(7, geom.V(1, 1))
	g.Build()
	buf = g.Within(geom.V(0, 0), 500, buf)
	if len(buf) != 1 || buf[0].ID != 7 {
		t.Fatalf("stale members after Reset: %v", buf)
	}
}

func TestGridPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("zero cell", func() { (&Grid{}).Reset(0) })
	expectPanic("negative cell", func() { (&Grid{}).Reset(-1) })
	expectPanic("NaN cell", func() { (&Grid{}).Reset(math.NaN()) })
	expectPanic("Inf cell", func() { (&Grid{}).Reset(math.Inf(1)) })
	expectPanic("query before Build", func() {
		g := &Grid{}
		g.Reset(1)
		g.Within(geom.V(0, 0), 1, nil)
	})
	expectPanic("Add after Build", func() {
		g := &Grid{}
		g.Reset(1)
		g.Build()
		g.Add(1, geom.V(0, 0))
	})
}

// TestWithinQueryAllocFree pins that steady-state rebuild+query cycles
// — Within for radio delivery, NearPairs for collision detection — do
// not allocate once the backing arrays have grown.
func TestWithinQueryAllocFree(t *testing.T) {
	rng := prng.New(7)
	pts := make([]geom.Vec2, 200)
	for i := range pts {
		pts[i] = geom.V(rng.Range(-100, 100), rng.Range(-100, 100))
	}
	g := &Grid{}
	buf := make([]Member, 0, len(pts))
	var pairs [][2]int32
	cycle := func() {
		g.Reset(10)
		for i, p := range pts {
			g.Add(int32(i), p)
		}
		g.Build()
		for _, p := range pts[:20] {
			buf = g.Within(p, 25, buf)
		}
		pairs = g.NearPairs(5, pairs)
	}
	cycle() // warm up the backing arrays
	if len(pairs) == 0 {
		t.Fatal("NearPairs found no candidate pairs — the pin is vacuous")
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("steady-state rebuild+query allocates %.1f times per cycle, want 0", allocs)
	}
}

// bruteNearPairs is the reference candidate-pair superset NearPairs
// must cover: every unordered pair of finite members within maxDist
// (the callers' strict `< r²` predicate accepts at most these).
func bruteNearPairs(members []Member, maxDist float64) map[[2]int32]bool {
	want := map[[2]int32]bool{}
	for i, a := range members {
		if !a.Pos.IsFinite() {
			continue
		}
		for _, b := range members[i+1:] {
			if !b.Pos.IsFinite() {
				continue
			}
			if b.Pos.DistSq(a.Pos) <= maxDist*maxDist {
				lo, hi := a.ID, b.ID
				if hi < lo {
					lo, hi = hi, lo
				}
				want[[2]int32{lo, hi}] = true
			}
		}
	}
	return want
}

// TestNearPairsCoversBruteForce is the candidate-pair property test:
// for randomized layouts (uniform, stacked, cell-aligned, ulp-edged,
// non-finite) NearPairs must return a duplicate-free, (lo, hi)-ordered
// pair list covering every finite pair within maxDist.
func TestNearPairsCoversBruteForce(t *testing.T) {
	rng := prng.New(0xCAFE)
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for iter := 0; iter < iters; iter++ {
		cell := []float64{1, 2, 8, 100}[rng.Intn(4)]
		maxDist := cell / []float64{2, 2.5, 4, 1000}[rng.Intn(4)]
		n := rng.Intn(150)
		members := make([]Member, 0, n)
		for i := 0; i < n; i++ {
			var p geom.Vec2
			switch rng.Intn(5) {
			case 0: // dense uniform: many in-range pairs
				p = geom.V(rng.Range(-3*cell, 3*cell), rng.Range(-3*cell, 3*cell))
			case 1: // identical stacked positions
				p = geom.V(4*cell, 4*cell)
			case 2: // exactly on cell corners
				p = geom.V(float64(rng.Intn(8)-4)*cell, float64(rng.Intn(8)-4)*cell)
			case 3: // one ulp around a cell edge
				edge := float64(rng.Intn(4)) * cell
				if rng.Intn(2) == 0 {
					edge = math.Nextafter(edge, math.Inf(1))
				} else {
					edge = math.Nextafter(edge, math.Inf(-1))
				}
				p = geom.V(edge, edge-maxDist/2)
			default: // occasionally non-finite
				vals := []float64{math.NaN(), math.Inf(1), rng.Range(-cell, cell)}
				p = geom.V(vals[rng.Intn(3)], vals[rng.Intn(3)])
			}
			members = append(members, Member{ID: int32(i), Pos: p})
		}
		g := buildGrid(t, cell, members)
		pairs := g.NearPairs(maxDist, nil)

		seen := map[[2]int32]bool{}
		for _, pr := range pairs {
			if pr[0] >= pr[1] {
				t.Fatalf("iter %d: pair %v not (lo, hi) ordered", iter, pr)
			}
			if seen[pr] {
				t.Fatalf("iter %d: duplicate pair %v", iter, pr)
			}
			seen[pr] = true
			for _, id := range pr {
				if !members[id].Pos.IsFinite() {
					t.Fatalf("iter %d: non-finite member %d in pair %v", iter, id, pr)
				}
			}
		}
		for pr := range bruteNearPairs(members, maxDist) {
			if !seen[pr] {
				t.Fatalf("iter %d: pair %v within %g missing (cell %g, %d members)",
					iter, pr, maxDist, cell, n)
			}
		}
	}
}

// TestNearPairsPreconditionPanics pins the 2·maxDist ≤ cell guard: a
// radius the one-cell stencil cannot cover must refuse loudly rather
// than silently miss pairs. (An unbounded reach is not such a radius:
// see TestNearPairsUnboundedReach.)
func TestNearPairsPreconditionPanics(t *testing.T) {
	g := buildGrid(t, 2.0, []Member{{ID: 0, Pos: geom.V(0, 0)}})
	for _, r := range []float64{1.001, 5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("maxDist %v with cell 2: expected panic", r)
				}
			}()
			g.NearPairs(r, nil)
		}()
	}
	if got := g.NearPairs(1.0, nil); len(got) != 0 { // exactly cell/2 is allowed
		t.Fatalf("single member produced pairs: %v", got)
	}
}

// TestNearPairsUnboundedReach: a reach whose double overflows has no
// cell size that covers it, so NearPairs answers with every pair of
// finite-position members — (lo, hi)-ordered, duplicate-free, whatever
// the Add order — and still leaves the non-finite ones out.
func TestNearPairsUnboundedReach(t *testing.T) {
	members := []Member{
		{ID: 5, Pos: geom.V(0, 0)},
		{ID: 2, Pos: geom.V(1e200, -1e200)},
		{ID: 9, Pos: geom.V(math.NaN(), 0)},
		{ID: 3, Pos: geom.V(-4, 4)},
		{ID: 7, Pos: geom.V(math.Inf(1), 0)},
	}
	g := buildGrid(t, 1, members)
	for _, reach := range []float64{math.Inf(1), math.MaxFloat64} {
		got := g.NearPairs(reach, nil)
		slices.SortFunc(got, func(a, b [2]int32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		if want := [][2]int32{{2, 3}, {2, 5}, {3, 5}}; !slices.Equal(got, want) {
			t.Fatalf("reach %v: pairs %v, want %v", reach, got, want)
		}
	}
}

// TestGrowAllocatesOnce pins what Grow is for: a build of n members
// after Grow(n) allocates each backing array once, not up append's
// doubling ladder (seven steps per array at n = 40), and a rebuild of
// the same size allocates nothing.
func TestGrowAllocatesOnce(t *testing.T) {
	const n = 40 // below the radix threshold: no sort scratch
	build := func(g *Grid, grow bool) {
		g.Reset(10)
		if grow {
			g.Grow(n)
		}
		for i := 0; i < n; i++ {
			g.Add(int32(i), geom.V(float64(i*7%100), float64(i*13%100)))
		}
		g.Build()
	}
	ladder := testing.AllocsPerRun(20, func() { build(&Grid{}, false) })
	grown := testing.AllocsPerRun(20, func() { build(&Grid{}, true) })
	// The race detector's build allocates twice per Grow, hence no
	// exact count here; the serve and root allocation ceilings hold one.
	if grown > ladder/3 {
		t.Errorf("first build allocates %.0f times after Grow(%d), %.0f without: Grow should replace the ladder", grown, n, ladder)
	}
	g := &Grid{}
	build(g, true)
	if again := testing.AllocsPerRun(20, func() { build(g, true) }); again != 0 {
		t.Errorf("rebuild allocates %.0f times, want 0", again)
	}
}

// TestBuildSortPathsAgree pins that the radix build (members added in
// ID order over a compact region) and the comparison build (same
// members added in reverse, defeating idsOrdered) produce identical
// query results — the two sorts must be observationally the same index.
func TestBuildSortPathsAgree(t *testing.T) {
	rng := prng.New(42)
	members := make([]Member, 300)
	for i := range members {
		// Several members per cell so key ties exercise tie ordering.
		members[i] = Member{ID: int32(i), Pos: geom.V(rng.Range(0, 40), rng.Range(0, 40))}
	}
	fwd := buildGrid(t, 4, members)
	rev := &Grid{}
	rev.Reset(4)
	for i := len(members) - 1; i >= 0; i-- {
		rev.Add(members[i].ID, members[i].Pos)
	}
	rev.Build()

	var bufA, bufB []Member
	for q := 0; q < 50; q++ {
		center := geom.V(rng.Range(-5, 45), rng.Range(-5, 45))
		r := rng.Range(0, 10)
		bufA = fwd.Within(center, r, bufA)
		bufB = rev.Within(center, r, bufB)
		assertSameMembers(t, "radix vs comparison build", bufA, bufB)
	}
	pa := fwd.NearPairs(2, nil)
	pb := rev.NearPairs(2, nil)
	if len(pa) != len(pb) {
		t.Fatalf("pair counts differ: %d vs %d", len(pa), len(pb))
	}
	pm := map[[2]int32]bool{}
	for _, pr := range pa {
		pm[pr] = true
	}
	for _, pr := range pb {
		if !pm[pr] {
			t.Fatalf("pair %v only in reverse-order build", pr)
		}
	}
}

// TestScanAllAddOrderMatchesSorted holds scanAll's sort-free walk
// (members added in ID order, none loose) equal to the path that sorts:
// the same members added in a shuffled order, which defeats idsOrdered.
// Every query radius is wide enough that Within falls through to
// scanAll; some member sets carry non-finite positions, which send both
// grids down the sorting path and must still agree.
func TestScanAllAddOrderMatchesSorted(t *testing.T) {
	rng := prng.New(0x5CA7)
	var bufA, bufB []Member
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(150)
		members := make([]Member, n)
		for i := range members {
			// Gaps in the ID sequence: order, not density, is the contract.
			members[i] = Member{ID: int32(3*i + rng.Intn(3)), Pos: geom.V(rng.Range(-60, 60), rng.Range(-60, 60))}
		}
		if iter%4 == 3 {
			for k := 0; k < 1+rng.Intn(3); k++ {
				members[rng.Intn(n)].Pos = []geom.Vec2{
					geom.V(math.NaN(), 1), geom.V(math.Inf(1), 0), geom.V(2, math.Inf(-1)),
				}[rng.Intn(3)]
			}
		}
		ordered := buildGrid(t, 20, members)
		shuffled := &Grid{}
		shuffled.Reset(20)
		for _, i := range rng.Perm(n) {
			shuffled.Add(members[i].ID, members[i].Pos)
		}
		shuffled.Build()
		for q := 0; q < 20; q++ {
			center := geom.V(rng.Range(-80, 80), rng.Range(-80, 80))
			r := rng.Range(0, 200)
			bufA = ordered.scanAll(center, r*r, bufA[:0])
			bufB = shuffled.scanAll(center, r*r, bufB[:0])
			assertSameMembers(t, "add-order scan vs sorted scan", bufA, bufB)
			assertSameMembers(t, "scan vs brute force", bufA, bruteWithin(members, center, r))
		}
	}
}
