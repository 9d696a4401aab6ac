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

// BandwidthRow is a traffic summary in bytes/second (what Fig. 6a and
// Fig. 7a/7c plot).
type BandwidthRow struct {
	TxApp, TxAudit float64
	RxApp, RxAudit float64
	TxGoodput      float64
}

// MeanBandwidth averages each correct robot's traffic over the elapsed
// simulation time.
func (s *Sim) MeanBandwidth() BandwidthRow {
	ids := s.CorrectIDs()
	if len(ids) == 0 {
		return BandwidthRow{}
	}
	elapsed := s.Seconds(s.Engine.Now())
	if elapsed == 0 {
		elapsed = 1
	}
	var sum BandwidthRow
	for _, id := range ids {
		c := s.Medium.Counters(id)
		txApp, txAudit := float64(c.TxApp)/elapsed, float64(c.TxAudit)/elapsed
		sum.TxApp += txApp
		sum.TxAudit += txAudit
		sum.RxApp += float64(c.RxApp) / elapsed
		sum.RxAudit += float64(c.RxAudit) / elapsed
		sum.TxGoodput += txApp + txAudit
	}
	inv := 1 / float64(len(ids))
	sum.TxApp *= inv
	sum.TxAudit *= inv
	sum.RxApp *= inv
	sum.RxAudit *= inv
	sum.TxGoodput *= inv
	return sum
}

// MeanStorage averages the current log+checkpoint storage of correct
// protected robots (Fig. 6b, Fig. 7b/7d).
func (s *Sim) MeanStorage() float64 {
	var vs []float64
	for _, id := range s.CorrectIDs() {
		if eng := s.robots[id].Engine(); eng != nil {
			vs = append(vs, float64(eng.Log().StorageBytes()))
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
// experiments ("no correct robots were put into Safe Mode", §5.2). A
// robot that physically crashed is excluded, as the invariant checker
// and ChaosMetrics.CorrectDisabled exclude it: its protocol halts, so
// its a-node kill switch firing is the designed outcome.
func (s *Sim) CorrectInSafeMode() []wire.RobotID {
	var out []wire.RobotID
	for _, ev := range s.SafeModeEvents() {
		if s.compromised[ev.ID] == nil && !s.robots[ev.ID].Body().Crashed {
			out = append(out, ev.ID)
		}
	}
	return out
}
