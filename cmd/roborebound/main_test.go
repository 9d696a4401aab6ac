package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainEnv, when set, makes the test binary act as the roborebound CLI
// itself, so TestCLIArguments can observe main's flag parsing and exit
// codes in a subprocess.
const mainEnv = "ROBOREBOUND_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// capture redirects report output to a buffer, runs the subcommand,
// and restores stdout routing and the flags the subcommand reads.
func capture(t *testing.T, quickRun bool, f func()) string {
	t.Helper()
	var buf bytes.Buffer
	oldOut, oldQuick, oldProgress := out, *quick, *progress
	out, *quick, *progress = &buf, quickRun, false
	defer func() {
		out, *quick, *progress = oldOut, oldQuick, oldProgress
		chaosFailed = false
	}()
	f()
	return buf.String()
}

func TestTable1Smoke(t *testing.T) {
	got := capture(t, false, table1)
	for _, want := range []string{"a-node load", "Primitive", "Total", "%"} {
		if !strings.Contains(got, want) {
			t.Errorf("table1 output missing %q:\n%s", want, got)
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	got := capture(t, false, table2)
	for _, want := range []string{"s-node load", "Total"} {
		if !strings.Contains(got, want) {
			t.Errorf("table2 output missing %q:\n%s", want, got)
		}
	}
}

func TestFig6QuickSmoke(t *testing.T) {
	got := capture(t, true, fig6)
	for _, want := range []string{"Fig. 6", "f_max", "storage"} {
		if !strings.Contains(got, want) {
			t.Errorf("fig6 output missing %q:\n%s", want, got)
		}
	}
	// The quick sweep still prints at least one data row: f_max values
	// 1..3 at a single audit period.
	if rows := strings.Count(got, "4s |"); rows < 2 {
		t.Errorf("fig6 printed %d data rows:\n%s", rows, got)
	}
}

func TestChaosQuickSmoke(t *testing.T) {
	got := capture(t, true, chaos)
	if chaosFailed {
		t.Fatalf("quick chaos soak failed:\n%s", got)
	}
	for _, want := range []string{"Chaos soak", "controller", "verdict", "all", "cells ok"} {
		if !strings.Contains(got, want) {
			t.Errorf("chaos output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "FAIL") {
		t.Errorf("chaos output reports failures:\n%s", got)
	}
	// Every controller and the control profile appear as rows.
	for _, want := range []string{"flocking", "patrol", "warehouse", "none", "mixed"} {
		if !strings.Contains(got, want) {
			t.Errorf("chaos matrix missing %q rows:\n%s", want, got)
		}
	}
}

// TestCLIArguments pins main's argument handling: flags go before the
// subcommand, nothing may follow it except trace's one scenario, and
// every rejection exits 2 instead of running some other cell.
func TestCLIArguments(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantExit int
		wantErr  string // substring of stderr
		wantOut  string // substring of stdout
	}{
		{"no subcommand", nil, 2, "usage:", ""},
		{"unknown subcommand", []string{"bogus"}, 2, `unknown subcommand "bogus"`, ""},
		{"flag after subcommand", []string{"perf", "-n", "300"}, 2, "flags go before the subcommand", ""},
		{"unknown flag after subcommand", []string{"perf", "-bogus"}, 2, "flags go before the subcommand", ""},
		{"positional after subcommand", []string{"table1", "extra"}, 2, `unexpected argument "extra"`, ""},
		{"trace second positional", []string{"trace", "patrol", "extra"}, 2, `unexpected argument "extra"`, ""},
		{"trace flag as scenario", []string{"trace", "-quick"}, 2, "flags go before the subcommand", ""},
		{"removed swarm subcommand", []string{"swarm"}, 2, `unknown subcommand "swarm"`, ""},
		{"removed -shards flag", []string{"-shards", "4", "perf"}, 2, "flag provided but not defined: -shards", ""},
		{"removed -load flag", []string{"-load", "8", "serve"}, 2, "flag provided but not defined: -load", ""},
		{"removed scale subcommand", []string{"scale"}, 2, `unknown subcommand "scale"`, ""},
		{"removed -spatial flag", []string{"-spatial", "chaos"}, 2, "flag provided but not defined: -spatial", ""},
		{"removed -selftest flag", []string{"-selftest", "serve"}, 2, "flag provided but not defined: -selftest", ""},
		{"plain subcommand", []string{"table1"}, 0, "", ""},
		{"trace keeps its scenario", []string{"-quick", "trace", "patrol"}, 0, "", "trace patrol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), mainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("running CLI: %v", err)
			}
			if exit != tc.wantExit {
				t.Errorf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", exit, tc.wantExit, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tc.wantOut, &stdout)
			}
		})
	}
}
