package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"roborebound/internal/faultinject"
)

// requestCorpus is the seed set for FuzzJobRequestDecode: structurally
// hostile inputs, then one small request per job kind in table order.
// The same set backs f.Add seeding and, through TestWriteFuzzCorpus,
// the checked-in corpus under testdata/fuzz.
func requestCorpus() [][]byte {
	inputs := []string{
		``,
		`{`,
		`null`,
		`{"version":1,"kind":"chaos","bogus":true}`,
		`{"version":1,"kind":"chaos"} trailing`,
		`{"version":99,"kind":"chaos"}`,
		`{"version":1,"kind":"chaos","n":-5}`,
		`{"version":1,"kind":"chaos","duration_sec":1e308}`,
		// Over the sizes cap — and, since the scale kind went, an unknown kind.
		`{"version":1,"kind":"scale","sizes":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`,
		`{"version":1,"kind":"resume","resume":{"job":"../x","artifact":"y"}}`,
		// A kind and a field that used to exist, then a field its kind
		// does not take.
		`{"version":1,"kind":"swarm","sizes":[24]}`,
		`{"version":1,"kind":"chaos","spatial_index":true}`,
		`{"version":1,"kind":"resume","n":300,"resume":{"job":"t-1","artifact":"a.rbsn"}}`,
		// One per kind. The chaos and snapshot rows take the default
		// mixed profile and run too briefly to schedule a fault, so
		// they seed the inert-cell rejection.
		`{"version":1,"kind":"chaos","seed":7,"n":4,"duration_sec":4,"events":true}`,
		`{"version":1,"kind":"trace","seed":7,"n":3,"duration_sec":3,"perfetto":true}`,
		`{"version":1,"kind":"fig6","seed":7,"n":6,"duration_sec":4,"fmaxes":[1],"periods_sec":[2]}`,
		`{"version":1,"kind":"fig7-density","seed":7,"duration_sec":4,"sizes":[4],"spacings":[8]}`,
		`{"version":1,"kind":"fig7-scale","seed":7,"duration_sec":4,"sizes":[4]}`,
		`{"version":1,"kind":"snapshot","seed":7,"n":4,"duration_sec":4,"snapshot_at_tick":8}`,
		`{"version":1,"kind":"resume","resume":{"job":"t-1","artifact":"checkpoint.rbsn"}}`,
		`{"version":1,"kind":"resume-verify","resume":{"job":"t-1","artifact":"checkpoint.rbsn"}}`,
	}
	out := make([][]byte, len(inputs))
	for i, in := range inputs {
		out[i] = []byte(in)
	}
	return out
}

// FuzzJobRequestDecode hammers the request codec: any input must
// either decode to a validated request or error — never panic — and a
// successful decode must re-encode into a canonical form that decodes
// back to the same bytes (the resubmission-handle contract).
func FuzzJobRequestDecode(f *testing.F) {
	for _, in := range requestCorpus() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeJobRequest(b)
		if err != nil {
			if req != nil {
				t.Fatal("DecodeJobRequest returned both a request and an error")
			}
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("decoded request fails its own validation: %v", err)
		}
		first, err := req.Encode()
		if err != nil {
			t.Fatalf("re-encode of a valid request failed: %v", err)
		}
		again, err := DecodeJobRequest(first)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		second, err := again.Encode()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", first, second)
		}
	})
}

// FuzzAcceptedCellJob: any chaos, trace or snapshot request that
// Validate accepts runs through RunJobDirect without panicking or
// failing. Cells stay small (n <= 12, duration_sec a multiple of a
// quarter second up to 5) so each execution is a few milliseconds; Validate's own rules — a faulted
// cell too short to schedule a fault, snapshot_at_tick beyond the run,
// an MTU below the audit-response floor — are what the fuzzer probes.
func FuzzAcceptedCellJob(f *testing.F) {
	kinds := []string{KindChaos, KindTrace, KindSnapshot}
	controllers := []string{"", "flocking", "patrol", "warehouse"}
	profiles := []string{""}
	for _, p := range faultinject.Profiles() {
		profiles = append(profiles, string(p))
	}
	// kind, controller, profile, seed, n, duration in quarter seconds
	// less one, fmax, spacing_m, mtu_bytes, snapshot_at_tick, events,
	// perfetto. Profile 1 is none.
	for _, mtu := range []uint16{11, 12, 52, 53, 66} {
		f.Add(uint8(0), uint8(0), uint8(1), uint64(3), uint8(0), uint8(19), uint8(0), 0.0, mtu, uint64(0), false, false)
	}
	f.Add(uint8(1), uint8(2), uint8(0), uint64(7), uint8(3), uint8(11), uint8(1), 0.0, uint16(0), uint64(0), false, true)
	f.Add(uint8(2), uint8(3), uint8(1), uint64(7), uint8(4), uint8(15), uint8(0), 0.0, uint16(96), uint64(16), false, false)
	f.Fuzz(func(t *testing.T, kind, controller, profile uint8, seed uint64, n, quarters,
		fmax uint8, spacingM float64, mtu uint16, snapshotAt uint64, events, perfetto bool) {
		req := &JobRequest{
			Version:        RequestVersion,
			Kind:           kinds[int(kind)%len(kinds)],
			Controller:     controllers[int(controller)%len(controllers)],
			Profile:        profiles[int(profile)%len(profiles)],
			Seed:           seed,
			N:              int(n % 13),
			DurationSec:    float64(quarters%20+1) / 4,
			Fmax:           int(fmax),
			SpacingM:       spacingM,
			MTUBytes:       int(mtu),
			SnapshotAtTick: snapshotAt,
			Events:         events,
			Perfetto:       perfetto,
		}
		if req.Validate() != nil {
			return
		}
		if _, err := RunJobDirect(req, nil); err != nil {
			t.Fatalf("accepted request %+v failed: %v", req, err)
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus. Run
// with REGEN_FUZZ_CORPUS=1 after changing the request schema or the
// jobKinds table.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJobRequestDecode")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, in := range requestCorpus() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(in)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
