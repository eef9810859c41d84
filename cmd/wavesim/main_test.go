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
// binary is re-executed with wavesim arguments after "--".
func TestCLIProcess(t *testing.T) {
	if flag.NArg() == 0 {
		return
	}
	os.Args = append([]string{"wavesim"}, flag.Args()...)
	flag.CommandLine = flag.NewFlagSet("wavesim", flag.ExitOnError)
	main()
}

// TestRejectsBadFlags: a step count below 1, a CFL number that is not a
// finite number above 0, or a negative guard interval prints a message
// naming the flag and exits 2 before any mesh is built, instead of
// integrating backwards, not at all, or for a negative number of steps.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-steps", "0"},
		{"-steps", "-1"},
		{"-cfl", "0"},
		{"-cfl", "-1", "-steps", "2"},
		{"-cfl", "NaN"},
		{"-cfl", "+Inf"},
		{"-guard", "-1"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestCLIProcess$", "--"}, args...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2 (stderr %q)", args, err, stderr.String())
		}
		if !strings.HasPrefix(stderr.String(), args[0]+" ") {
			t.Errorf("%v: stderr %q does not name %s", args, stderr.String(), args[0])
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway: %s", args, stdout.String())
		}
		if strings.Contains(stderr.String(), "panic") {
			t.Errorf("%v: panicked: %s", args, stderr.String())
		}
	}
}
