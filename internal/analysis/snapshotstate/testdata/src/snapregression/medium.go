// Package snapregression is the seeded-bug fixture for snapshotstate:
// a distilled radio.Medium whose delivery-round cursor dodges the
// snapshot codec. This is the exact bug class PR 7's differential
// tests exist for — the codec round-trips, every unit test passes,
// and a resumed run silently shifts reassembly expiry because the
// cursor restarted at zero. The analyzer must catch it at lint time.
package snapregression

import "roborebound/internal/wire"

type medium struct {
	queue []queued
	seq   uint64
	// deliverTick lags the engine tick by a run-dependent amount, so
	// it cannot be re-derived on restore — and the codec forgot it.
	deliverTick wire.Tick // want `field medium.deliverTick is not referenced by the package's snapshot codec`
}

type queued struct {
	from    wire.RobotID
	readyAt wire.Tick
}

func (m *medium) EncodeState() []byte {
	w := wire.NewWriter(64)
	w.U32(uint32(len(m.queue)))
	for _, q := range m.queue {
		w.U16(uint16(q.from))
		w.U64(uint64(q.readyAt))
	}
	w.U64(m.seq)
	return w.Bytes()
}

func (m *medium) RestoreState(b []byte) error {
	r := wire.NewReader(b)
	queue := make([]queued, r.Count(10))
	for i := range queue {
		queue[i] = queued{
			from:    wire.RobotID(r.U16()),
			readyAt: wire.Tick(r.U64()),
		}
	}
	m.seq = r.U64()
	if err := r.Done(); err != nil {
		return err
	}
	m.queue = queue
	return nil
}
