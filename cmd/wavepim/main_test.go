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
// spec validator's typed message and exit 2, before any mesh is built. A
// timing run of fewer than one step names the flag and exits 2 too,
// instead of running the paper's default step count.
func TestFunctionalRejectsBadSpec(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-functional", "-refine", "11"}, "bad job spec: refine:"},
		{[]string{"-functional", "-np", "1"}, "bad job spec: np:"},
		{[]string{"-functional", "-fsteps", "-3"}, "bad job spec: steps:"},
		{[]string{"-functional", "-interconnect", "clos"}, "bad job spec: topology:"},
		{[]string{"-functional", "-faults", "seed=banana"}, "bad job spec: faults:"},
		{[]string{"-bench", "acoustic_4", "-chip", "2GB", "-steps", "0"}, "-steps 0:"},
		{[]string{"-bench", "acoustic_4", "-chip", "2GB", "-steps", "-3"}, "-steps -3:"},
	} {
		args := append([]string{"-test.run=^TestCLIProcess$", "--"}, tc.args...)
		cmd := exec.Command(os.Args[0], args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2 (stderr %q)", tc.args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
		if strings.Contains(stderr.String(), "panic") {
			t.Errorf("%v: panicked: %s", tc.args, stderr.String())
		}
	}
}
