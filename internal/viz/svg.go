// Package viz renders simulation snapshots and traces as standalone
// SVG documents — the reproduction's equivalent of the paper's
// position-snapshot figures (Figs. 2a/2b, 8a/8c/8e, 9b) and
// distance-over-time plots (Figs. 8b/8d, 9a). Pure string building on
// the standard library; no display dependencies.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Marker classifies how a robot is drawn in a snapshot.
type Marker int

// Marker kinds.
const (
	MarkerCorrect Marker = iota
	MarkerCompromised
	MarkerDisabled
	MarkerCrashed
)

var markerStyle = map[Marker]string{
	MarkerCorrect:     `fill="#2b6cb0"`,
	MarkerCompromised: `fill="#c53030"`,
	MarkerDisabled:    `fill="#718096"`,
	MarkerCrashed:     `fill="#000000"`,
}

// Snapshot is one world frame to render.
type Snapshot struct {
	// Title is drawn above the plot.
	Title string
	// Robots maps each robot to its position.
	Robots map[wire.RobotID]geom.Vec2
	// Markers optionally overrides the default (correct) marker.
	Markers map[wire.RobotID]Marker
	// Goal, if non-nil, is drawn as an ×.
	Goal *geom.Vec2
	// Obstacles are drawn as circles.
	Obstacles []geom.SphereObstacle
	// KeepOutRadius, if positive, draws the attack's ring around Goal.
	KeepOutRadius float64
}

type viewBox struct {
	x0, y0, x1, y1 float64
}

func (v *viewBox) include(p geom.Vec2, pad float64) {
	if p.X-pad < v.x0 {
		v.x0 = p.X - pad
	}
	if p.Y-pad < v.y0 {
		v.y0 = p.Y - pad
	}
	if p.X+pad > v.x1 {
		v.x1 = p.X + pad
	}
	if p.Y+pad > v.y1 {
		v.y1 = p.Y + pad
	}
}

// RenderSnapshot produces a standalone SVG document.
func RenderSnapshot(s Snapshot) string {
	vb := viewBox{x0: 1e18, y0: 1e18, x1: -1e18, y1: -1e18}
	for _, id := range idsInOrder(s.Robots) {
		vb.include(s.Robots[id], 10)
	}
	if s.Goal != nil {
		pad := 10.0
		if s.KeepOutRadius > 0 {
			pad += s.KeepOutRadius
		}
		vb.include(*s.Goal, pad)
	}
	for _, o := range s.Obstacles {
		vb.include(o.C, o.R+5)
	}
	if vb.x0 > vb.x1 {
		vb = viewBox{0, 0, 100, 100}
	}
	w, h := vb.x1-vb.x0, vb.y1-vb.y0
	// SVG's y axis points down; flip by transforming y ↦ (y1 − y).
	fy := func(y float64) float64 { return vb.y1 - y + vb.y0 }
	r := markerRadius(w, h)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.1f %.1f %.1f %.1f" width="640" height="%d">`,
		vb.x0, vb.y0, w, h, int(640*h/w))
	b.WriteString("\n")
	fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#f7fafc"/>`, vb.x0, vb.y0, w, h)
	b.WriteString("\n")
	if s.Title != "" {
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="%.1f" fill="#1a202c">%s</text>`,
			vb.x0+2*r, vb.y0+3*r, 2.5*r, escape(s.Title))
		b.WriteString("\n")
	}
	for _, o := range s.Obstacles {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="#cbd5e0" stroke="#4a5568"/>`,
			o.C.X, fy(o.C.Y), o.R)
		b.WriteString("\n")
	}
	if s.Goal != nil {
		g := *s.Goal
		if s.KeepOutRadius > 0 {
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" stroke="#c53030" stroke-dasharray="4 3"/>`,
				g.X, fy(g.Y), s.KeepOutRadius)
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, `<path d="M %.1f %.1f l %.1f %.1f m 0 %.1f l %.1f %.1f" stroke="#2f855a" stroke-width="%.1f"/>`,
			g.X-1.5*r, fy(g.Y)-1.5*r, 3*r, 3*r, -3*r, -3*r, 3*r, r/2)
		b.WriteString("\n")
	}
	for _, id := range idsInOrder(s.Robots) {
		p := s.Robots[id]
		style := markerStyle[s.Markers[id]]
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" %s><title>robot %d</title></circle>`,
			p.X, fy(p.Y), r, style, id)
		b.WriteString("\n")
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func markerRadius(w, h float64) float64 {
	m := w
	if h > m {
		m = h
	}
	r := m / 120
	if r < 0.5 {
		r = 0.5
	}
	return r
}

func idsInOrder(m map[wire.RobotID]geom.Vec2) []wire.RobotID {
	ids := make([]wire.RobotID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}

// LinePlot renders time series (e.g. each robot's distance to goal —
// the Fig. 8b/8d/9a panels) with an optional shaded attack window.
type LinePlot struct {
	Title  string
	XLabel string
	YLabel string
	// X is the shared sample axis; Series maps a label to Y values
	// (shorter series are truncated to len(X)).
	X      []float64
	Series map[string][]float64
	// ShadeX0/ShadeX1, when distinct, shade [X0, X1] (the attack-active
	// span in Figs. 8–9).
	ShadeX0, ShadeX1 float64
}

// RenderLinePlot produces a standalone SVG document.
func RenderLinePlot(p LinePlot) string {
	const w, h, padL, padB, padT = 640.0, 360.0, 50.0, 30.0, 24.0
	if len(p.X) == 0 {
		return `<svg xmlns="http://www.w3.org/2000/svg" width="640" height="360"></svg>` + "\n"
	}
	xMin, xMax := p.X[0], p.X[len(p.X)-1]
	if xMax == xMin {
		xMax = xMin + 1
	}
	labels := make([]string, 0, len(p.Series))
	for label := range p.Series {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	yMax := 0.0
	for _, label := range labels {
		for _, y := range p.Series[label] {
			if y > yMax {
				yMax = y
			}
		}
	}
	if yMax == 0 {
		yMax = 1
	}
	sx := func(x float64) float64 { return padL + (x-xMin)/(xMax-xMin)*(w-padL-10) }
	sy := func(y float64) float64 { return h - padB - y/yMax*(h-padB-padT) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %.0f %.0f" width="%.0f" height="%.0f">`, w, h, w, h)
	b.WriteString("\n")
	fmt.Fprintf(&b, `<rect width="%.0f" height="%.0f" fill="#ffffff"/>`, w, h)
	b.WriteString("\n")
	if p.ShadeX1 > p.ShadeX0 {
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#fed7d7"/>`,
			sx(p.ShadeX0), padT, sx(p.ShadeX1)-sx(p.ShadeX0), h-padB-padT)
		b.WriteString("\n")
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#1a202c"/>`, padL, h-padB, w-10, h-padB)
	b.WriteString("\n")
	fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#1a202c"/>`, padL, padT, padL, h-padB)
	b.WriteString("\n")
	if p.Title != "" {
		fmt.Fprintf(&b, `<text x="%.1f" y="16" font-size="13" fill="#1a202c">%s</text>`, padL, escape(p.Title))
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="#4a5568">%s</text>`, w/2, h-8, escape(p.XLabel))
	b.WriteString("\n")
	fmt.Fprintf(&b, `<text x="12" y="%.1f" font-size="11" fill="#4a5568" transform="rotate(-90 12 %.1f)">%s</text>`,
		h/2, h/2, escape(p.YLabel))
	b.WriteString("\n")
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="10" fill="#4a5568">%.0f</text>`, padL-24, sy(yMax)+4, yMax)
	b.WriteString("\n")

	for _, label := range labels {
		ys := p.Series[label]
		var path strings.Builder
		for i, y := range ys {
			if i >= len(p.X) {
				break
			}
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s %.1f %.1f ", cmd, sx(p.X[i]), sy(y))
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="#2b6cb0" stroke-opacity="0.5"/>`, path.String())
		b.WriteString("\n")
	}
	b.WriteString("</svg>\n")
	return b.String()
}
