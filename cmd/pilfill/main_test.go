package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pilfill/internal/core"
)

// TestMain lets the test binary act as the pilfill command when
// PILFILL_RUN_MAIN is set, so tests can run it in a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("PILFILL_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPilfill runs the command with args and returns its combined output and
// exit code.
func runPilfill(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PILFILL_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("pilfill %v: %v", args, err)
	return "", 0
}

// TestGroundedILPIFails: -method ILP-I -grounded exits 1 naming the
// combination instead of writing the floating-fill answer; ILP-II under
// -grounded still succeeds.
func TestGroundedILPIFails(t *testing.T) {
	out, code := runPilfill(t, "-case", "T1", "-method", "ILP-I", "-grounded")
	if code != 1 || !strings.Contains(out, core.ErrGroundedILPI.Error()) {
		t.Fatalf("ILP-I -grounded exited %d with output:\n%s\nwant exit 1 and %q", code, out, core.ErrGroundedILPI)
	}
	if out, code := runPilfill(t, "-case", "T1", "-method", "ILP-II", "-grounded"); code != 0 {
		t.Fatalf("ILP-II -grounded exited %d with output:\n%s", code, out)
	}
}
