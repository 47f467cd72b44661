package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dropWallClock removes the report's only wall-clock line, the average
// decision latency, so the rest of the report can be compared byte for byte.
func dropWallClock(s string) string {
	var keep []string
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "avg decision latency:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestReportGoldens pins the CLI's stdout (and, for the sink run, the
// exported trace and metrics files) to output captured before the CLI's
// deploy loop was folded into experiments.Options.Run.
func TestReportGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("five end-to-end CLI runs in -short mode")
	}
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.jsonl")
	metricsOut := filepath.Join(dir, "metrics.jsonl")
	cases := []struct {
		golden string
		args   []string
		files  map[string]string // path → sha256 of its contents
	}{
		{"autob_diurnal", []string{"-system", "auto-b", "-load", "diurnal", "-minutes", "6"}, nil},
		{"none_sketch", []string{"-system", "none", "-telemetry", "sketch", "-minutes", "4",
			"-trace-out", traceOut, "-metrics-out", metricsOut}, map[string]string{
			traceOut:   "870d66f1c8f497efab39f53163620c171e86122a9f695118ef8e5f962350f83a",
			metricsOut: "46f842bf6f69628eeaab03de3abb0d0444e5dc2957c76316570f070f97c7b46c",
		}},
		{"autoa_failnode", []string{"-system", "auto-a", "-resilience", "-fail-node", "node-7",
			"-fail-at", "2", "-fail-for", "2", "-minutes", "6"}, nil},
		{"autob_failregion", []string{"-system", "auto-b", "-regions", "-resilience",
			"-fail-region", "eu-west", "-fail-at", "2", "-fail-for", "2", "-minutes", "6"}, nil},
		{"ursa_twotier", []string{"-system", "ursa", "-scale", "0.25", "-minutes", "4",
			"-topology", "../../examples/specs/two-tier.json"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout bytes.Buffer
			if err := run(tc.args, &stdout, io.Discard); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := dropWallClock(stdout.String()), dropWallClock(string(want)); got != want {
				t.Fatalf("report diverged from golden\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			for path, digest := range tc.files {
				if got := fileDigest(t, path); got != digest {
					t.Errorf("%s: sha256 %s, want %s", filepath.Base(path), got, digest)
				}
			}
		})
	}
}

// TestRejectsBadInput: user-reachable mistakes come back as errors from run,
// never as a panic or a process exit.
func TestRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "no-such-app"},
		{"-system", "no-such-system"},
		{"-load", "sideways"},
		{"-telemetry", "psychic"},
		{"-system", "none", "-fail-node", "node-99"},
		{"-system", "none", "-regions", "-fail-node", "node-7"},
		{"-system", "none", "-regions", "-fail-region", "mars"},
		{"-system", "none", "-app", "media-service", "-regions"},
		{"-validate"},
		{"-dump-topology", "no-such-topology"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
