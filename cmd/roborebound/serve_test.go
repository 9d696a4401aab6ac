package main

import (
	"strings"
	"testing"

	"roborebound/internal/serve"
)

// captureServe runs the serve subcommand in selftest mode, restoring
// the flags after.
func captureServe(t *testing.T, f func()) string {
	t.Helper()
	oldSelftest, oldWorkers := *serveSelftest, *serveWorkers
	*serveSelftest, *serveWorkers = true, 2
	defer func() {
		*serveSelftest, *serveWorkers = oldSelftest, oldWorkers
		serveFailed = false
	}()
	return capture(t, false, f)
}

func TestServeSelftestCLI(t *testing.T) {
	got := captureServe(t, serveCmd)
	if serveFailed {
		t.Fatalf("serve -selftest failed:\n%s", got)
	}
	for _, kind := range serve.Kinds() {
		if !strings.Contains(got, kind) {
			t.Errorf("selftest output missing kind %q:\n%s", kind, got)
		}
	}
	if !strings.Contains(got, "byte-identical") {
		t.Errorf("selftest output missing the byte-identical verdict:\n%s", got)
	}
}
