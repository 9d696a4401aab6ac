package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// cliDeadline bounds one runCLI subprocess.
const cliDeadline = 2 * time.Minute

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
		{"misspelled trace scenario", []string{"-quick", "trace", "patroll"}, 2, `unknown trace scenario "patroll"`, ""},
		{"misspelled snapshot controller", []string{"-controller", "flockin", "-duration", "30", "-o", os.DevNull, "snapshot"}, 2, `unknown -controller "flockin"`, ""},
		{"misspelled snapshot profile", []string{"-profile", "mixd", "-duration", "30", "-o", os.DevNull, "snapshot"}, 2, `unknown -profile "mixd"`, ""},
		{"misspelled perf profile", []string{"-quick", "-profile", "mixd", "perf"}, 2, `unknown -profile "mixd"`, ""},
		{"negative snapshot -n", []string{"-n", "-5", "-duration", "20", "-o", os.DevNull, "snapshot"}, 2, "negative -n -5", ""},
		{"negative perf -n", []string{"-quick", "-n", "-3", "perf"}, 2, "negative -n -3", ""},
		{"negative snapshot -duration", []string{"-duration", "-10", "-o", os.DevNull, "snapshot"}, 2, "out-of-range -duration -10", ""},
		{"NaN snapshot -duration", []string{"-duration", "NaN", "-o", os.DevNull, "snapshot"}, 2, "out-of-range -duration NaN", ""},
		{"plain subcommand", []string{"table1"}, 0, "", ""},
		{"trace keeps its scenario", []string{"-quick", "trace", "patrol"}, 0, "", "trace patrol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			exit, stdout, stderr := runCLI(t, tc.args...)
			if exit != tc.wantExit {
				t.Errorf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", exit, tc.wantExit, stdout, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, stderr)
			}
			if !strings.Contains(stdout, tc.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tc.wantOut, stdout)
			}
		})
	}
}

// runCLI runs the CLI's main with args in a subprocess and returns its
// exit status and output. A CLI still running after cliDeadline is
// killed and fails the test by its arguments.
func runCLI(t *testing.T, args ...string) (exit int, stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), cliDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("roborebound %q did not exit within %v", args, cliDeadline)
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running CLI: %v", err)
	}
	return exit, outBuf.String(), errBuf.String()
}

// TestAllQuickSmoke runs every table and figure at reduced size through
// main: each one's banner and header is printed, and the run exits 0.
func TestAllQuickSmoke(t *testing.T) {
	exit, stdout, stderr := runCLI(t, "-quick", "-progress=false", "all")
	if exit != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	for _, name := range allCmds {
		if banner := "================ " + strings.ToUpper(name) + " ================"; !strings.Contains(stdout, banner) {
			t.Errorf("output missing %q", banner)
		}
	}
	for _, header := range []string{
		"Worst-case a-node load", "Worst-case s-node load",
		"Fig. 5a", "Fig. 5b", "Fig. 6", "Fig. 7a/7b", "Fig. 7c/7d",
		"Fig. 2", "Fig. 8", "Fig. 9",
	} {
		if !strings.Contains(stdout, header) {
			t.Errorf("output missing %q:\n%s", header, stdout)
		}
	}
}

// TestREADMECommands checks every command README.md tells a reader to
// run. A `go run ./cmd/roborebound` line (with its \ continuations)
// must parse under the CLI's flags, pass checkArgs and name a
// subcommand; any other `go run ./<dir>` must name a main package.
func TestREADMECommands(t *testing.T) {
	const root = "../.."
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(readme), "\n")
	goRun := regexp.MustCompile("go run (\\./[^\\s`]+)")
	cli := 0
	for i := 0; i < len(lines); i++ {
		at := i + 1
		line := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(line, "go run ./cmd/roborebound ") {
			for _, m := range goRun.FindAllStringSubmatch(line, -1) {
				if !isMainPackage(t, filepath.Join(root, m[1])) {
					t.Errorf("README.md:%d: %s is not a main package", at, m[1])
				}
			}
			continue
		}
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + strings.TrimSpace(lines[i])
		}
		if c := strings.Index(line, " #"); c >= 0 {
			line = strings.TrimSpace(line[:c])
		}
		cli++
		args := strings.Fields(line)[3:]
		fs := cliFlags(t)
		if err := fs.Parse(args); err != nil {
			t.Errorf("README.md:%d: %q: %v", at, line, err)
			continue
		}
		if fs.NArg() == 0 {
			t.Errorf("README.md:%d: %q names no subcommand", at, line)
			continue
		}
		if err := checkArgs(fs.Args()); err != nil {
			t.Errorf("README.md:%d: %q: %v", at, line, err)
		}
		if _, ok := cmds[fs.Arg(0)]; !ok && fs.Arg(0) != "all" {
			t.Errorf("README.md:%d: %q: unknown subcommand %q", at, line, fs.Arg(0))
		}
	}
	if cli == 0 {
		t.Fatal("README.md has no go run ./cmd/roborebound lines")
	}
}

// cliFlags is a fresh FlagSet with the CLI's flags (the test binary's
// own -test.* flags left out), so parsing a line leaves the real flag
// values alone.
func cliFlags(t *testing.T) *flag.FlagSet {
	fs := flag.NewFlagSet("roborebound", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		switch v := f.Value.(flag.Getter).Get().(type) {
		case bool:
			fs.Bool(f.Name, v, f.Usage)
		case int:
			fs.Int(f.Name, v, f.Usage)
		case uint64:
			fs.Uint64(f.Name, v, f.Usage)
		case float64:
			fs.Float64(f.Name, v, f.Usage)
		case string:
			fs.String(f.Name, v, f.Usage)
		default:
			t.Fatalf("flag -%s: unhandled type %T", f.Name, v)
		}
	})
	return fs
}

// isMainPackage reports whether dir holds a Go main package.
func isMainPackage(t *testing.T, dir string) bool {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		return parsed.Name.Name == "main"
	}
	return false
}
