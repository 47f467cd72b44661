package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperimentRejected pins the -exp check: a name that matches no
// experiment is an error that lists the valid names, and nothing is written.
func TestUnknownExperimentRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "res")
	err := run([]string{"-exp", "fig99", "-out", out, "-q"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range []string{`"fig99"`, "fig2", "figs1", "ablation", "all"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %s", err, name)
		}
	}
	if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
		t.Errorf("output directory created for a rejected run (stat: %v)", statErr)
	}
}

func TestRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-exp", "figs1", "-figs1-nodes", "8,zero"},
		{"-exp", "figs1", "-figs1-tenants", "-2"},
	} {
		if err := run(append(args, "-out", t.TempDir(), "-q"), io.Discard, io.Discard); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
