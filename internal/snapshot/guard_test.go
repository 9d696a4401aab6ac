package snapshot

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"roborebound/internal/analysis/snapshotstate"
	"roborebound/internal/attack"
	"roborebound/internal/core"
	"roborebound/internal/faultinject"
	"roborebound/internal/prng"
	"roborebound/internal/radio"
	"roborebound/internal/robot"
	"roborebound/internal/sim"
	"roborebound/internal/trusted"
)

// TestSnapshotFieldExhaustiveness is the codec's change detector,
// demoted from a hand-pinned field census to a cross-check: the
// reflection walk below enumerates every struct type reachable
// (through fields, pointers, slices, and maps) from the snapshotted
// roots, and compares each type's actual field list against the
// snapshotstate analyzer's view of the same type — Covered ∪ Skipped
// from snapshotstate.Surfaces. The analyzer is the source of truth for
// which fields the codecs carry and which are justified skips (`make
// lint` holds every skip to a written reason); this test holds the
// analyzer's *static* reachability to the *runtime* shape, so the two
// views of the codec surface cannot drift apart silently:
//
//   - A field added to a tracked struct fails `make lint` until the
//     codec carries it or a //rebound:snapshot-skip justifies it —
//     and fails here if the analyzer somehow didn't see the type.
//   - A type that the runtime walk reaches but the analyzer does not
//     track fails here (it must either join a codec, become a guard
//     leaf with a reason, or get a manual pin below).
//   - A type the analyzer tracks but the walk never reaches fails
//     here too: stale analyzer surface means the reachability
//     reasoning moved on.
//
// The walk sees unexported fields via reflection, so nothing needs
// exporting; interfaces and funcs are natural stop points (they are
// wiring, rebuilt on restore, never serialized).

// guardLeafPkgs are packages whose types the walk does not descend
// into: their state either has its own codec with its own tests
// (control, cryptolite, obs), is pure immutable data (wire, geom), is
// per-round scratch (spatial), or is observation-only wall-clock
// instrumentation that is never serialized (obs/perf — every holding
// field is //rebound:snapshot-skip, reattached at rebuild).
var guardLeafPkgs = map[string]bool{
	"roborebound/internal/wire":         true,
	"roborebound/internal/geom":         true,
	"roborebound/internal/geom/spatial": true,
	"roborebound/internal/obs":          true,
	"roborebound/internal/obs/perf":     true,
	"roborebound/internal/control":      true,
	"roborebound/internal/cryptolite":   true,
	"roborebound/internal/flocking":     true,
	"roborebound/internal/runner":       true,
}

// guardLeafTypes are configuration/provisioning types inside walked
// packages that the analyzer does not track (their holding fields are
// //rebound:snapshot-skip, so the codec walk never enters them):
// immutable after construction, re-derived by the rebuild, never
// serialized. A field added to one of these cannot change a run's
// tick-to-tick evolution after build time.
var guardLeafTypes = map[string]bool{
	"sim.WorldConfig":          true,
	"radio.Params":             true,
	"core.Config":              true,
	"trusted.ANodeConfig":      true,
	"trusted.SealedMissionKey": true,
	"faultinject.Schedule":     true,
}

// guardManualFields pins the field lists of the few run-state structs
// outside the analyzer's codec surface: sim.Engine is snapshotted by
// the runner orchestration (not a struct codec the analyzer can root
// at), prng.Source's codec lives behind MarshalState-style methods,
// radio.Delivery is only reachable through a skipped scratch buffer,
// and so are core.missScratch and the replay.Machine inside it: a cache
// miss's working storage, which every replay repositions before it
// reads it, so no state passes from one miss to the next (replay's
// TestMachineReuseMatchesAFreshLoad). attack.Ctx is reachable only
// through a compromised robot's skipped strategy view, which Tick
// rewrites from the robot before every Act: its clock, pose, capture
// ring and neighbor copy, and the two hooks bound to the robot once;
// its slab only carves payloads, each of which belongs to the frame it
// is sent in.
// Everything else is pinned by snapshotstate.Surfaces.
var guardManualFields = map[string][]string{
	"sim.Engine":       {"World", "Medium", "actors", "ids", "now", "observers", "perf"},
	"radio.Delivery":   {"To", "Frame", "Rank"},
	"prng.Source":      {"s"},
	"core.missScratch": {"entries", "machine"},
	"replay.Machine":   {"chains", "ctrl", "state"},
	"attack.Ctx":       {"Now", "ID", "Pos", "Vel", "Neighbors", "SendFrame", "Actuate", "Captured", "slab"},
}

const guardPkgPrefix = "roborebound/internal/"

func guardTypeKey(t reflect.Type) string {
	return strings.TrimPrefix(t.PkgPath(), guardPkgPrefix) + "." + t.Name()
}

func TestSnapshotFieldExhaustiveness(t *testing.T) {
	surfaces, err := snapshotstate.Surfaces("../..", "./...")
	if err != nil {
		t.Fatalf("snapshotstate.Surfaces: %v", err)
	}
	if len(surfaces) == 0 {
		t.Fatal("snapshotstate.Surfaces returned no tracked types; the analyzer lost its codec roots")
	}

	roots := []reflect.Type{
		reflect.TypeOf(sim.Engine{}),
		reflect.TypeOf(sim.World{}),
		reflect.TypeOf(radio.Medium{}),
		reflect.TypeOf(robot.Robot{}),
		reflect.TypeOf(attack.Compromised{}),
		reflect.TypeOf(core.AuditCache{}),
		reflect.TypeOf(trusted.ANode{}),
		reflect.TypeOf(trusted.SNode{}),
		reflect.TypeOf(faultinject.Checker{}),
		reflect.TypeOf(prng.Source{}),
	}
	seen := make(map[reflect.Type]bool)
	reached := make(map[string]bool) // full "<pkgpath>.<Type>" keys
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem())
			return
		case reflect.Map:
			walk(ty.Key())
			walk(ty.Elem())
			return
		case reflect.Struct:
		default:
			return // scalars, interfaces, funcs, chans: stop
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		if !strings.HasPrefix(ty.PkgPath(), guardPkgPrefix) {
			if ty.PkgPath() != "" && !strings.HasPrefix(ty.PkgPath(), "crypto") && ty.PkgPath() != "hash" {
				t.Errorf("walk reached type %s.%s outside the module; extend the guard's leaf rules", ty.PkgPath(), ty.Name())
			}
			return
		}
		if guardLeafPkgs[ty.PkgPath()] {
			return
		}
		if ty.Name() == "" {
			t.Errorf("walk reached an anonymous struct in %s; name it and pin its fields", ty.PkgPath())
			return
		}
		fullKey := ty.PkgPath() + "." + ty.Name()
		key := guardTypeKey(ty)

		var want []string
		if fs, tracked := surfaces[fullKey]; tracked {
			reached[fullKey] = true
			want = append(append(want, fs.Covered...), fs.Skipped...)
		} else if guardLeafTypes[key] {
			return
		} else if pinned, ok := guardManualFields[key]; ok {
			want = append(want, pinned...)
		} else {
			t.Errorf("type %s holds run state but is neither tracked by the snapshotstate analyzer nor pinned in guardManualFields; make the snapshot codec account for every field (then the analyzer tracks it) or pin it here with a reason", key)
			return
		}

		var got []string
		for i := 0; i < ty.NumField(); i++ {
			got = append(got, ty.Field(i).Name)
			walk(ty.Field(i).Type)
		}
		ws, gs := append([]string(nil), want...), append([]string(nil), got...)
		sort.Strings(ws)
		sort.Strings(gs)
		if !reflect.DeepEqual(ws, gs) {
			t.Errorf("field list of %s diverges from the analyzer's surface:\n  runtime  %v\n  analyzer %v\nupdate the snapshot codec for %s (or //rebound:snapshot-skip the new field with a reason) — `make lint` explains which fields are uncovered", key, got, want, key)
		}
	}
	for _, r := range roots {
		walk(r)
	}

	// Every manually pinned type must be reachable — a stale entry
	// means the walk (and hence the codecs' coverage reasoning) moved
	// on.
	for key := range guardManualFields {
		found := false
		for ty := range seen {
			if ty.Kind() == reflect.Struct && strings.HasPrefix(ty.PkgPath(), guardPkgPrefix) && guardTypeKey(ty) == key {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("guardManualFields pins %s but the walk never reached it; remove the stale entry or fix the walk roots", key)
		}
	}

	// And every analyzer-tracked type must be reachable by the runtime
	// walk: a tracked type the walk cannot see means the static and
	// dynamic reachability have drifted apart.
	for fullKey := range surfaces {
		if !reached[fullKey] {
			t.Errorf("snapshotstate tracks %s but the runtime walk never reached it; the static and runtime views of the codec surface have drifted — fix the walk roots or the analyzer's codec roots", fullKey)
		}
	}
}
