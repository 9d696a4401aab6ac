package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestRepoIsClean is the suite's contract: the repository itself must
// pass all four analyzers (determinism, trustedboundary, clockdomain,
// snapshotstate) — and the annotation audit — with exit status 0. Every violation is either fixed or
// carries a justified //rebound: annotation, and every hatch earns
// its keep.
func TestRepoIsClean(t *testing.T) {
	t.Chdir(repoRoot(t))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("reboundlint ./... = exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); out != "" {
		t.Errorf("expected no findings, got:\n%s", out)
	}
}

// TestFindingsExitOne checks the failure path end to end on a throwaway
// module: findings print in file:line order and flip the exit status.
func TestFindingsExitOne(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module lintfixture\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "main.go"), `package main

import "time"

func main() {
	_ = time.Now()
}
`)
	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "wall-clock read time.Now") {
		t.Errorf("missing determinism finding in output:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "[determinism]") {
		t.Errorf("finding not attributed to its analyzer:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "1 violation") {
		t.Errorf("missing violation count on stderr:\n%s", stderr.String())
	}
}

func TestRunFlagSelectsAnalyzers(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module lintfixture\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "main.go"), `package main

import "time"

func main() {
	_ = time.Now()
}
`)
	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "trustedboundary,clockdomain", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (determinism deselected)\nstdout:\n%s", code, stdout.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	names := []string{"determinism", "trustedboundary", "clockdomain", "snapshotstate"}
	for _, name := range names {
		if !strings.Contains(stdout.String(), name+":") {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
	if got := strings.Count(stdout.String(), "\n"); got != len(names) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", got, len(names), stdout.String())
	}
}

// TestUnusedHatchIsAFinding checks the annotation audit: a suppression
// hatch on a line where its analyzer reports nothing is itself
// reported — stale hatches rot into false confidence.
func TestUnusedHatchIsAFinding(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module lintfixture\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "main.go"), `package main

func main() {
	x := 1
	//rebound:wallclock left behind after the clock read was removed
	_ = x
}
`)
	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "//rebound:wallclock hatch suppresses nothing") {
		t.Errorf("missing unused-hatch finding:\n%s", out)
	}
	if !strings.Contains(out, "[annotations]") {
		t.Errorf("audit finding not attributed to the annotations pass:\n%s", out)
	}
}

// TestUnusedHatchNotReportedWhenOwnerDeselected: with determinism
// deselected, its hatches cannot be judged — no false unused report.
func TestUnusedHatchNotReportedWhenOwnerDeselected(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module lintfixture\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "main.go"), `package main

import "time"

func main() {
	//rebound:wallclock startup banner only, not replayed
	_ = time.Now()
}
`)
	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "clockdomain", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (hatch owner deselected)\nstdout:\n%s", code, stdout.String())
	}
}

// TestUnknownDirectiveIsAFinding: a typo'd //rebound: directive
// silently suppresses nothing, which is exactly why it must be loud —
// and so must one whose kind was retired (hotpath), or a stale
// annotation would linger as a silent no-op.
func TestUnknownDirectiveIsAFinding(t *testing.T) {
	for _, name := range []string{"wallclok", "hotpath"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeFile(t, filepath.Join(dir, "go.mod"), "module lintfixture\n\ngo 1.24\n")
			writeFile(t, filepath.Join(dir, "main.go"), `package main

func main() {
	//rebound:`+name+` x
	_ = 1
}
`)
			t.Chdir(dir)
			var stdout, stderr bytes.Buffer
			if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
				t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), "unknown directive //rebound:"+name) {
				t.Errorf("missing unknown-directive finding:\n%s", stdout.String())
			}
		})
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer exit = %d, want 2", code)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
