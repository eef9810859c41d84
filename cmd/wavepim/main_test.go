package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestCLIProcess is main in a child process: it runs only when the test
// binary is re-executed with wavepim arguments after "--".
func TestCLIProcess(t *testing.T) {
	if flag.NArg() == 0 {
		return
	}
	os.Args = append([]string{"wavepim"}, flag.Args()...)
	flag.CommandLine = flag.NewFlagSet("wavepim", flag.ExitOnError)
	main()
}

// TestFunctionalRejectsBadSpec: out-of-range functional flags print the
// spec validator's typed message and exit 2, before any mesh is built.
func TestFunctionalRejectsBadSpec(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-refine", "11"}, "refine"},
		{[]string{"-np", "1"}, "np"},
		{[]string{"-fsteps", "-3"}, "steps"},
		{[]string{"-interconnect", "clos"}, "topology"},
		{[]string{"-faults", "seed=banana"}, "faults"},
	} {
		args := append([]string{"-test.run=^TestCLIProcess$", "--", "-functional"}, tc.args...)
		cmd := exec.Command(os.Args[0], args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2 (stderr %q)", tc.args, err, stderr.String())
		}
		if want := "bad job spec: " + tc.field + ":"; !strings.Contains(stderr.String(), want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), want)
		}
		if strings.Contains(stderr.String(), "panic") {
			t.Errorf("%v: panicked: %s", tc.args, stderr.String())
		}
	}
}
