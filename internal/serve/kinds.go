package serve

import (
	"reflect"
	"slices"
	"strings"

	"roborebound/internal/faultinject"
)

// Job kinds. Each is one row of jobKinds below.
const (
	KindChaos       = "chaos"         // one invariant-checked chaos cell
	KindTrace       = "trace"         // fully-instrumented fault-free cell
	KindFig6        = "fig6"          // bandwidth/storage sweep (§5.2 Fig. 6)
	KindFig7Density = "fig7-density"  // cost vs density (§5.2 Fig. 7a/b)
	KindFig7Scale   = "fig7-scale"    // cost vs robots (§5.2 Fig. 7c/d)
	KindSnapshot    = "snapshot"      // run a cell, capture a mid-run snapshot
	KindResume      = "resume"        // resume a stored snapshot to completion
	KindResumeVerif = "resume-verify" // resume + rerun uninterrupted + compare
)

// jobKind is the single definition of one job kind. Kinds(), the kind
// and field checks in Validate and the runJob dispatch all read the
// jobKinds table; adding a kind is one row here plus one cell in the
// root HTTP≡facade matrix.
type jobKind struct {
	name string
	// takes lists the JSON names of the JobRequest fields the kind
	// reads. Validate rejects a request that sets any other: a field
	// the executor would ignore is a misuse, not a default.
	takes []string
	run   func(k *jobKind, req *JobRequest, resolve resolveFunc, hooks execHooks) (*JobOutput, error)

	// The rest parameterises runCellJob, for the kinds that run one
	// chaos cell.

	// artifacts names, in delivery order, what the kind can produce;
	// one is skipped when the run has nothing for it (no collector, no
	// perfetto flag, a drain interrupt before the capture tick).
	artifacts []string
	// profile replaces an unnamed fault profile, and is what Validate
	// holds an unnamed profile to.
	profile faultinject.Profile
	traced  bool // collect protocol events whether or not the request asks
	capture bool // capture a snapshot at snapshot_at_tick
	resumes bool // the cell is the resume handle's snapshot, not the request's knobs
	verify  bool // compare the finished run against an uninterrupted oracle
}

// cellFields are the knobs of one chaos cell (see chaosCell).
const cellFields = "controller profile seed n duration_sec fmax spacing_m mtu_bytes"

// Artifact names the cell kinds produce.
const (
	metricsArtifact  = "metrics.json"
	eventsArtifact   = "events.ndjson"
	perfettoArtifact = "perfetto.json"
	snapshotArtifact = "snapshot.rbsn"
)

// jobKinds is every job kind, in the order Kinds() reports.
var jobKinds = []jobKind{
	{
		// RunChaos's own default profile, named so Validate can see it.
		name: KindChaos, takes: strings.Fields(cellFields + " events"), run: runCellJob,
		artifacts: []string{metricsArtifact, eventsArtifact},
		profile:   faultinject.ProfileMixed,
	},
	{
		// A trace job is a fully instrumented look at the healthy
		// protocol; faults are opt-in via an explicit profile.
		name: KindTrace, takes: strings.Fields(cellFields + " perfetto"), run: runCellJob,
		artifacts: []string{eventsArtifact, metricsArtifact, perfettoArtifact},
		profile:   faultinject.ProfileNone, traced: true,
	},
	{
		name: KindFig6, takes: strings.Fields("n spacing_m duration_sec seed fmaxes periods_sec workers"), run: runFig6Job,
	},
	{
		name: KindFig7Density, takes: strings.Fields("sizes spacings duration_sec seed workers"), run: runFig7Job,
	},
	{
		name: KindFig7Scale, takes: strings.Fields("sizes duration_sec seed workers"), run: runFig7Job,
	},
	{
		name: KindSnapshot, takes: strings.Fields(cellFields + " snapshot_at_tick"), run: runCellJob,
		artifacts: []string{metricsArtifact, snapshotArtifact},
		profile:   faultinject.ProfileMixed, capture: true,
	},
	{
		name: KindResume, takes: []string{"resume"}, run: runCellJob,
		artifacts: []string{metricsArtifact}, resumes: true,
	},
	{
		name: KindResumeVerif, takes: []string{"resume"}, run: runCellJob,
		artifacts: []string{metricsArtifact}, resumes: true, verify: true,
	},
}

// Kinds lists every job kind in table order.
func Kinds() []string {
	names := make([]string, len(jobKinds))
	for i := range jobKinds {
		names[i] = jobKinds[i].name
	}
	return names
}

// kindByName returns the named kind's row, or nil.
func kindByName(name string) *jobKind {
	for i := range jobKinds {
		if jobKinds[i].name == name {
			return &jobKinds[i]
		}
	}
	return nil
}

func (k *jobKind) takesField(name string) bool { return slices.Contains(k.takes, name) }

// requestField is one JobRequest field a kind may or may not take.
type requestField struct {
	name  string // its JSON name
	index int    // its struct index
}

// requestFields is every JobRequest field but version and kind, read
// off the struct once so the takes lists cannot drift from it.
var requestFields = func() []requestField {
	var fields []requestField
	t := reflect.TypeFor[JobRequest]()
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name != "version" && name != "kind" {
			fields = append(fields, requestField{name, i})
		}
	}
	return fields
}()

// untakenField returns the JSON name of a field the request sets but
// the kind does not take ("" when there is none). Set means what
// omitempty means: non-zero, and non-empty for a slice.
func (k *jobKind) untakenField(r *JobRequest) string {
	v := reflect.ValueOf(r).Elem()
	for _, f := range requestFields {
		fv := v.Field(f.index)
		set := !fv.IsZero()
		if fv.Kind() == reflect.Slice {
			set = fv.Len() > 0
		}
		if set && !k.takesField(f.name) {
			return f.name
		}
	}
	return ""
}
