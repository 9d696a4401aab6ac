package roborebound

import (
	"roborebound/internal/geom"
	"roborebound/internal/metrics"
	"roborebound/internal/wire"
)

// DistanceTracker samples each robot's distance to a goal every tick.
type DistanceTracker struct {
	Goal   geom.Vec2
	Series map[wire.RobotID]*metrics.Series
}

// TrackDistances attaches a per-tick distance-to-goal sampler; call
// before running.
func (s *Sim) TrackDistances(goal geom.Vec2) *DistanceTracker {
	dt := &DistanceTracker{Goal: goal, Series: make(map[wire.RobotID]*metrics.Series)}
	for _, id := range s.IDs() {
		dt.Series[id] = &metrics.Series{}
	}
	ids := append([]wire.RobotID(nil), s.IDs()...) // ascending, fixed at attach time
	s.Engine.Observe(func(now wire.Tick) {
		for _, id := range ids {
			if pos, ok := s.World.Position(id); ok {
				dt.Series[id].Add(now, pos.Dist(goal))
			}
		}
	})
	return dt
}

// MeanFinalDistance averages the final distances over the given IDs.
func (dt *DistanceTracker) MeanFinalDistance(ids []wire.RobotID) float64 {
	vs := make([]float64, 0, len(ids))
	for _, id := range ids {
		if s, ok := dt.Series[id]; ok {
			vs = append(vs, s.Final())
		}
	}
	return metrics.Mean(vs)
}

// BandwidthRow is one robot's traffic summary in bytes/second.
type BandwidthRow struct {
	ID                     wire.RobotID
	TxApp, TxAudit         float64
	RxApp, RxAudit         float64
	TxGoodput, TotalPerSec float64
}

// BandwidthReport summarizes per-robot traffic over the elapsed
// simulation time (this is what Fig. 6a and Fig. 7a/7c plot).
func (s *Sim) BandwidthReport() []BandwidthRow {
	elapsed := s.Seconds(s.Engine.Now())
	if elapsed == 0 {
		elapsed = 1
	}
	var rows []BandwidthRow
	for _, id := range s.IDs() {
		c := s.Medium.Counters(id)
		row := BandwidthRow{
			ID:      id,
			TxApp:   float64(c.TxApp) / elapsed,
			TxAudit: float64(c.TxAudit) / elapsed,
			RxApp:   float64(c.RxApp) / elapsed,
			RxAudit: float64(c.RxAudit) / elapsed,
		}
		row.TxGoodput = row.TxApp + row.TxAudit
		row.TotalPerSec = row.TxGoodput + row.RxApp + row.RxAudit
		rows = append(rows, row)
	}
	return rows
}

// MeanBandwidth averages the report over correct robots.
func (s *Sim) MeanBandwidth() BandwidthRow {
	rows := s.BandwidthReport()
	correct := make(map[wire.RobotID]bool)
	for _, id := range s.CorrectIDs() {
		correct[id] = true
	}
	var sum BandwidthRow
	n := 0
	for _, r := range rows {
		if !correct[r.ID] {
			continue
		}
		sum.TxApp += r.TxApp
		sum.TxAudit += r.TxAudit
		sum.RxApp += r.RxApp
		sum.RxAudit += r.RxAudit
		sum.TxGoodput += r.TxGoodput
		sum.TotalPerSec += r.TotalPerSec
		n++
	}
	if n == 0 {
		return BandwidthRow{}
	}
	inv := 1 / float64(n)
	sum.TxApp *= inv
	sum.TxAudit *= inv
	sum.RxApp *= inv
	sum.RxAudit *= inv
	sum.TxGoodput *= inv
	sum.TotalPerSec *= inv
	return sum
}

// StorageRow is one robot's c-node storage footprint.
type StorageRow struct {
	ID    wire.RobotID
	Bytes int
}

// StorageReport returns each protected robot's current log+checkpoint
// storage (Fig. 6b, Fig. 7b/7d).
func (s *Sim) StorageReport() []StorageRow {
	var rows []StorageRow
	for _, id := range s.IDs() {
		r := s.robots[id]
		if eng := r.Engine(); eng != nil {
			rows = append(rows, StorageRow{ID: id, Bytes: eng.Log().StorageBytes()})
		}
	}
	return rows
}

// MeanStorage averages storage over correct protected robots.
func (s *Sim) MeanStorage() float64 {
	correct := make(map[wire.RobotID]bool)
	for _, id := range s.CorrectIDs() {
		correct[id] = true
	}
	var vs []float64
	for _, row := range s.StorageReport() {
		if correct[row.ID] {
			vs = append(vs, float64(row.Bytes))
		}
	}
	return metrics.Mean(vs)
}

// SafeModeEvent records one kill-switch firing.
type SafeModeEvent struct {
	ID   wire.RobotID
	Tick wire.Tick
}

// SafeModeEvents lists every robot currently in Safe Mode with its
// trigger time.
func (s *Sim) SafeModeEvents() []SafeModeEvent {
	var out []SafeModeEvent
	for _, id := range s.IDs() {
		if r := s.robots[id]; r.InSafeMode() {
			out = append(out, SafeModeEvent{ID: id, Tick: r.SafeModeAt()})
		}
	}
	return out
}

// CorrectInSafeMode reports whether any *correct* robot was disabled —
// the false-positive condition the paper reports never occurred in its
// experiments ("no correct robots were put into Safe Mode", §5.2).
func (s *Sim) CorrectInSafeMode() []wire.RobotID {
	var out []wire.RobotID
	for _, ev := range s.SafeModeEvents() {
		if s.compromised[ev.ID] == nil {
			out = append(out, ev.ID)
		}
	}
	return out
}
