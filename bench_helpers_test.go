package roborebound

import (
	"fmt"

	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// Small helpers keeping bench_test.go free of import noise.

func wireFrame(payload []byte) wire.Frame {
	return wire.Frame{Src: 1, Dst: 2, Payload: payload}
}

func decodeFrame(b []byte) (wire.Frame, error) { return wire.DecodeFrame(b) }

func chainAll(payloads [][]byte, batchSize int) {
	c := trusted.NewChain(batchSize)
	for _, p := range payloads {
		c.AppendEntry(wire.EntrySensor, p)
	}
	c.Flush()
}

func sizeName(n int) string    { return fmt.Sprintf("batch%d", n) }
func secName(s float64) string { return fmt.Sprintf("%.0fs", s) }
func fmaxName(f int) string    { return fmt.Sprintf("fmax%d", f) }
