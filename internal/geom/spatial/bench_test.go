package spatial

import (
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/prng"
)

// The grid-level micro pair behind the scale benchmarks: one query
// against N=500 points spread over a 64 m grid (the Fig. 7 swarm-scale
// density), grid vs linear scan.

func benchPoints(n int) []Member {
	rng := prng.New(1)
	side := 23 // ≈ ceil(sqrt(500)) grid columns
	pts := make([]Member, n)
	for i := range pts {
		x := float64(i%side)*64 + rng.Range(-1, 1)
		y := float64(i/side)*64 + rng.Range(-1, 1)
		pts[i] = Member{ID: int32(i), Pos: geom.V(x, y)}
	}
	return pts
}

func BenchmarkWithinGrid_N500(b *testing.B) {
	pts := benchPoints(500)
	g := &Grid{}
	g.Reset(100)
	for _, m := range pts {
		g.Add(m.ID, m.Pos)
	}
	g.Build()
	var buf []Member
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(pts[i%len(pts)].Pos, 200, buf)
	}
	_ = buf
}

func BenchmarkWithinBrute_N500(b *testing.B) {
	pts := benchPoints(500)
	var buf []Member
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		center := pts[i%len(pts)].Pos
		const rr = 200.0 * 200.0
		buf = buf[:0]
		for _, m := range pts {
			if m.Pos.DistSq(center) > rr {
				continue
			}
			buf = append(buf, m)
		}
	}
	_ = buf
}

func BenchmarkGridRebuild_N500(b *testing.B) {
	pts := benchPoints(500)
	g := &Grid{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset(100)
		for _, m := range pts {
			g.Add(m.ID, m.Pos)
		}
		g.Build()
	}
}
