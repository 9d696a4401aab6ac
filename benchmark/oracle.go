package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	rr "roborebound"
	"roborebound/internal/core"
)

// goldenSeed is the one seed whose outputs are pinned in golden.json.
// Every other seed is checked for self-consistency (each repeat of a
// cell yields the first repeat's fingerprint) plus the invariants.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden holds the pinned outputs of the full-size workloads at
// goldenSeed. -update-golden rewrites the file.
type golden struct {
	Seed uint64 `json:"seed"`
	// Cells maps a single-cell workload to its ChaosMetrics.Fingerprint.
	Cells map[string]string `json:"cells"`
	// MatrixSHA256 is a SHA-256 over the matrix pass's fingerprints, in
	// cell order.
	MatrixSHA256 string `json:"matrix_sha256"`
	// JobSHA256 is a SHA-256 over the first tiny job's result document
	// followed by its metrics.json artifact.
	JobSHA256 string `json:"job_sha256"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func writeGolden(path string, g golden) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// pinned reports whether this run's outputs are compared with
// golden.json: full size, at the golden seed.
func (r *run) pinned() bool { return !r.cfg.quick && r.cfg.seed == goldenSeed }

func digestStrings(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestBytes(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

const ticksPerSecond = 4.0

// btiBoundS is the paper's promise at the chaos plane's defaults: a
// compromised robot is disabled within T_val + T_audit of its first
// misbehaviour.
func btiBoundS() float64 {
	cc := core.DefaultConfig(ticksPerSecond)
	return float64(cc.TVal+cc.TAudit) / ticksPerSecond
}

// btiWindowS is the longest misbehaviour window among the cell's
// disabled attackers, in simulated seconds (0 without one).
func btiWindowS(res *rr.ChaosResult) float64 {
	worst := 0.0
	for _, ticks := range res.Metrics.DisableLatencyTicks {
		worst = max(worst, float64(ticks)/ticksPerSecond)
	}
	return worst
}

// cellFailures lists why a finished cell counts as a failed
// operation: a latched invariant violation, a correct robot disabled,
// an attacker that turned before the end of the run and was not
// disabled, a misbehaviour window over the bound, or a fingerprint
// other than want ("" skips that check).
func cellFailures(res *rr.ChaosResult, want string) []string {
	var why []string
	if res.ResumeError != nil {
		return []string{"resume: " + res.ResumeError.Error()}
	}
	if v := res.Violation; v != nil {
		why = append(why, fmt.Sprintf("invariant %s latched at tick %d robot %d", v.Invariant, v.Tick, v.Robot))
	}
	m := &res.Metrics
	if len(m.CorrectDisabled) > 0 {
		why = append(why, fmt.Sprintf("correct robots disabled: %v", m.CorrectDisabled))
	}
	if res.Config.AttackAtSec < res.Config.DurationSec && m.AttackersDisabled < m.Attackers {
		why = append(why, fmt.Sprintf("%d of %d attackers not disabled", m.Attackers-m.AttackersDisabled, m.Attackers))
	}
	if w := btiWindowS(res); w > btiBoundS() {
		why = append(why, fmt.Sprintf("misbehaviour window %.2f s over the %.0f s bound", w, btiBoundS()))
	}
	if want != "" && m.Fingerprint != want {
		why = append(why, fmt.Sprintf("fingerprint %.12s, want %.12s", m.Fingerprint, want))
	}
	return why
}

// regenerateGolden runs every workload's operation once at the golden
// seed and pins the outputs. It refuses to pin a failing cell.
func regenerateGolden(path string) error {
	g := golden{Seed: goldenSeed, Cells: map[string]string{}}
	for _, c := range []struct {
		name string
		cfg  rr.ChaosConfig
	}{
		{"flock_dense_n300", denseCell(goldenSeed, false)},
		{"swarm_sparse_n1000", sparseCell(goldenSeed, false)},
	} {
		res := rr.RunChaos(c.cfg)
		if why := cellFailures(&res, ""); len(why) > 0 {
			return fmt.Errorf("%s fails its oracle, not pinned: %v", c.name, why)
		}
		g.Cells[c.name] = res.Metrics.Fingerprint
	}
	cells := matrixCells(goldenSeed, false)
	results := rr.RunChaosMatrix(cells, rr.SweepOptions{Workers: matrixWorkers})
	for i := range results {
		if why := cellFailures(&results[i], ""); len(why) > 0 {
			return fmt.Errorf("%s fails its oracle, not pinned: %v", cells[i].Label(), why)
		}
	}
	g.MatrixSHA256 = digestStrings(fingerprints(results))
	job, err := directJob(tinyJob(goldenSeed))
	if err != nil {
		return fmt.Errorf("direct job: %w", err)
	}
	g.JobSHA256 = digestBytes(job.result, job.metrics)
	return writeGolden(path, g)
}
