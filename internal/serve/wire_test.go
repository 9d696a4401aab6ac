package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func validChaosRequest() *JobRequest {
	return &JobRequest{Version: RequestVersion, Kind: KindChaos, Profile: "none", N: 4, DurationSec: 4, Seed: 1}
}

func TestDecodeJobRequestRoundTrip(t *testing.T) {
	req := validChaosRequest()
	req.Events = true
	req.Controller, req.Profile, req.DurationSec = "patrol", "mixed", 30
	data, err := req.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeJobRequest(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	re, err := got.Encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, re) {
		t.Fatalf("round trip changed bytes:\n%s\n%s", data, re)
	}
}

func TestDecodeJobRequestRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"empty", ``, "decode"},
		{"not json", `{{{{`, "decode"},
		{"unknown field", `{"version":1,"kind":"chaos","bogus":true}`, "decode"},
		{"removed tick_shards", `{"version":1,"kind":"chaos","tick_shards":4}`, `unknown field "tick_shards"`},
		{"removed reference_plane", `{"version":1,"kind":"chaos","reference_plane":true}`, `unknown field "reference_plane"`},
		{"removed swarm kind", `{"version":1,"kind":"swarm","sizes":[24]}`, `unknown job kind "swarm"`},
		{"removed spatial_index", `{"version":1,"kind":"chaos","spatial_index":true}`, `unknown field "spatial_index"`},
		{"removed scale kind", `{"version":1,"kind":"scale","sizes":[12]}`, `unknown job kind "scale"`},
		{"trailing data", `{"version":1,"kind":"chaos"} {"x":1}`, "trailing"},
		{"wrong version", `{"version":2,"kind":"chaos"}`, "version"},
		{"no kind", `{"version":1}`, "kind"},
		{"unknown kind", `{"version":1,"kind":"mine-bitcoin"}`, "kind"},
		{"unknown controller", `{"version":1,"kind":"chaos","controller":"tank"}`, "controller"},
		{"unknown profile", `{"version":1,"kind":"chaos","profile":"sharks"}`, "profile"},
		{"n too big", `{"version":1,"kind":"chaos","n":100000}`, "out of range"},
		{"n negative", `{"version":1,"kind":"chaos","n":-1}`, "out of range"},
		{"duration too long", `{"version":1,"kind":"chaos","duration_sec":100000}`, "out of range"},
		{"duration nan", `{"version":1,"kind":"chaos","duration_sec":1e999}`, "decode"},
		{"workers over cap", `{"version":1,"kind":"fig6","workers":99}`, "out of range"},
		{"too many sizes", `{"version":1,"kind":"fig7-scale","sizes":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]}`, "sizes"},
		{"size over cap", `{"version":1,"kind":"fig7-scale","sizes":[99999]}`, "out of range"},
		{"spacing zero", `{"version":1,"kind":"fig7-density","spacings":[0]}`, "out of range"},
		{"period too short", `{"version":1,"kind":"fig6","periods_sec":[0.01]}`, "out of range"},
		{"resume without handle", `{"version":1,"kind":"resume"}`, "resume handle"},
		{"resume bad job id", `{"version":1,"kind":"resume","resume":{"job":"../../etc","artifact":"a"}}`, "job id"},
		{"resume bad artifact", `{"version":1,"kind":"resume","resume":{"job":"t-1","artifact":"../pw"}}`, "artifact"},
		{"snapshot tick beyond run", `{"version":1,"kind":"snapshot","duration_sec":4,"snapshot_at_tick":17}`, "beyond the 16-tick run"},
		{"snapshot tick beyond default run", `{"version":1,"kind":"snapshot","snapshot_at_tick":241}`, "beyond the 240-tick run"},
		{"snapshot tick on plain kind", `{"version":1,"kind":"chaos","snapshot_at_tick":8}`, "does not take snapshot_at_tick"},
		{"handle on plain kind", `{"version":1,"kind":"chaos","resume":{"job":"t-1","artifact":"a.rbsn"}}`, "does not take resume"},
		{"sweep shape on a cell", `{"version":1,"kind":"chaos","sizes":[100,200]}`, `kind "chaos" does not take sizes`},
		{"perfetto on a sweep", `{"version":1,"kind":"fig6","perfetto":true}`, `kind "fig6" does not take perfetto`},
		{"cell knob on resume", `{"version":1,"kind":"resume","n":300,"resume":{"job":"t-1","artifact":"a.rbsn"}}`, `kind "resume" does not take n`},
		// A faulted cell of 24 s or less schedules nothing (25 s does).
		{"inert mixed chaos", `{"version":1,"kind":"chaos","profile":"mixed","duration_sec":10}`, `duration_sec 10 schedules no mixed faults`},
		{"inert default-profile chaos", `{"version":1,"kind":"chaos","duration_sec":24}`, `duration_sec 24 schedules no mixed faults`},
		{"inert loss trace", `{"version":1,"kind":"trace","profile":"loss","duration_sec":4}`, `duration_sec 4 schedules no loss faults`},
		{"inert default-profile snapshot", `{"version":1,"kind":"snapshot","duration_sec":4,"snapshot_at_tick":8}`, `duration_sec 4 schedules no mixed faults`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeJobRequest([]byte(tc.body))
			if err == nil {
				t.Fatalf("decode accepted %q", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeInertBoundary pins the accepting side of the inert-cell
// rule: the first duration that schedules a fault, and short cells
// whose effective profile is none.
func TestDecodeInertBoundary(t *testing.T) {
	for _, body := range []string{
		`{"version":1,"kind":"chaos","profile":"mixed","duration_sec":25}`,
		`{"version":1,"kind":"snapshot","profile":"grief","duration_sec":24.25}`,
		`{"version":1,"kind":"chaos","profile":"none","duration_sec":1}`,
		`{"version":1,"kind":"trace","duration_sec":3}`,
		`{"version":1,"kind":"fig7-scale","duration_sec":4}`,
	} {
		if _, err := DecodeJobRequest([]byte(body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

func TestDecodeJobRequestSizeBound(t *testing.T) {
	huge := append([]byte(`{"version":1,"kind":"chaos","controller":"`),
		bytes.Repeat([]byte("a"), MaxRequestBytes)...)
	huge = append(huge, []byte(`"}`)...)
	if _, err := DecodeJobRequest(huge); err == nil {
		t.Fatal("decode accepted an oversized request")
	}
}

// TestDecodeKindFieldMatrix holds the decoder to the jobKinds table:
// for every kind × every JobRequest field, a request that sets the
// field decodes exactly when the kind's row takes it, and is otherwise
// rejected with the field named.
func TestDecodeKindFieldMatrix(t *testing.T) {
	// One valid, non-zero JSON value per field.
	samples := map[string]string{
		"controller":       `"patrol"`,
		"profile":          `"mixed"`,
		"seed":             `3`,
		"n":                `8`,
		"duration_sec":     `30`, // long enough for the default profiles to schedule faults
		"fmax":             `2`,
		"spacing_m":        `8`,
		"mtu_bytes":        `512`,
		"events":           `true`,
		"perfetto":         `true`,
		"sizes":            `[4]`,
		"spacings":         `[8]`,
		"fmaxes":           `[1]`,
		"periods_sec":      `[2]`,
		"workers":          `2`,
		"snapshot_at_tick": `1`,
		"resume":           `{"job":"t-1","artifact":"a.rbsn"}`,
	}
	if len(samples) != len(requestFields) {
		t.Fatalf("%d sample values for %d JobRequest fields", len(samples), len(requestFields))
	}
	for i := range jobKinds {
		k := &jobKinds[i]
		for _, name := range k.takes {
			if _, ok := samples[name]; !ok {
				t.Errorf("kind %s takes %q, which is not a JobRequest field", k.name, name)
			}
		}
		for _, f := range requestFields {
			sample, ok := samples[f.name]
			if !ok {
				t.Fatalf("no sample value for JobRequest field %q", f.name)
			}
			body := fmt.Sprintf(`{"version":1,"kind":%q,%q:%s`, k.name, f.name, sample)
			if k.takesField("resume") && f.name != "resume" {
				body += `,"resume":` + samples["resume"]
			}
			body += "}"
			_, err := DecodeJobRequest([]byte(body))
			switch {
			case k.takesField(f.name) && err != nil:
				t.Errorf("%s rejected though the kind takes %s: %v", body, f.name, err)
			case !k.takesField(f.name) && err == nil:
				t.Errorf("%s accepted though the kind does not take %s", body, f.name)
			case err != nil && !strings.Contains(err.Error(), fmt.Sprintf("kind %q does not take %s", k.name, f.name)):
				t.Errorf("%s: error %q does not name the kind and field", body, err)
			}
		}
	}
}

func TestValidateEveryKindZeroValue(t *testing.T) {
	// Every kind except the resume pair must accept a bare request —
	// zero-valued knobs mean facade defaults.
	for _, kind := range Kinds() {
		req := &JobRequest{Version: RequestVersion, Kind: kind}
		err := req.Validate()
		needsHandle := kindByName(kind).takesField("resume")
		if needsHandle && err == nil {
			t.Errorf("kind %s accepted without a resume handle", kind)
		}
		if !needsHandle && err != nil {
			t.Errorf("bare %s request rejected: %v", kind, err)
		}
	}
}

func TestNameValidators(t *testing.T) {
	for _, ok := range []string{"default", "tenant-1", "A_b-9"} {
		if !validTenant(ok) {
			t.Errorf("validTenant rejected %q", ok)
		}
	}
	for _, bad := range []string{"", "a b", "a/b", "x.y", strings.Repeat("t", 33)} {
		if validTenant(bad) {
			t.Errorf("validTenant accepted %q", bad)
		}
	}
	for _, ok := range []string{"metrics.json", "checkpoint.rbsn", "a-1_b.txt"} {
		if !ValidArtifactName(ok) {
			t.Errorf("ValidArtifactName rejected %q", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "a/b", "a\\b", "..", strings.Repeat("n", 65)} {
		if ValidArtifactName(bad) {
			t.Errorf("ValidArtifactName accepted %q", bad)
		}
	}
}
