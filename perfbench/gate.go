package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// defaultSeed is the seed whose fingerprints are stored in
// fingerprints.json; every other seed is held out and checked against the
// invariants only.
const defaultSeed = 1

// storedJSON maps workload name to its fingerprint at defaultSeed. A change
// that alters any modelled output must update it, and says so.
//
//go:embed fingerprints.json
var storedJSON []byte

func storedFingerprint(workload string) (fingerprint, bool, error) {
	var all map[string]fingerprint
	if err := json.Unmarshal(storedJSON, &all); err != nil {
		return fingerprint{}, false, fmt.Errorf("fingerprints.json: %w", err)
	}
	fp, ok := all[workload]
	return fp, ok, nil
}

// invariants checks the laws every run must satisfy on any seed.
func invariants(w workloadDef, fp fingerprint) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if fp.Events == 0 || fp.Injected <= 0 {
		fail("deployment simulated %d events and injected %d jobs", fp.Events, fp.Injected)
	}
	if inFlight := fp.Injected - fp.Completed - fp.Failed; inFlight < 0 {
		fail("conservation: injected %d < completed %d + failed %d", fp.Injected, fp.Completed, fp.Failed)
	}
	if fp.E2ERecorded != fp.Completed {
		fail("conservation: %d end-to-end latencies recorded for %d completed jobs", fp.E2ERecorded, fp.Completed)
	}
	if want := 100 * float64(fp.Failed) / float64(max(fp.Injected, 1)); fp.FailedPct != want {
		fail("failed_pct %v, want %v", fp.FailedPct, want)
	}
	if fp.SLAViolationPct < 0 || fp.SLAViolationPct > 100 || fp.FailedPct > 100 {
		fail("percentage out of range: sla_violation_pct %v failed_pct %v", fp.SLAViolationPct, fp.FailedPct)
	}
	if !(fp.CPUCores > 0) || math.IsInf(fp.CPUCores, 0) {
		fail("cpu_cores %v, want > 0", fp.CPUCores)
	}
	switch w.System {
	case "ursa":
		if fp.ExploreSamples <= 0 || fp.ProfilesDigest == "" {
			fail("Ursa set-up explored %d samples: set-up was skipped (cached in-process?)", fp.ExploreSamples)
		}
	case "firm":
		if fp.PretrainWindows <= 0 {
			fail("Firm pretraining ran %d windows: set-up was skipped", fp.PretrainWindows)
		}
	}
	if w.System != "ursa" && (fp.ExploreSamples != 0 || fp.ProfilesDigest != "") {
		fail("%s explored %d samples, want none", w.System, fp.ExploreSamples)
	}
	if w.Regions {
		if fp.Evicted <= 0 || fp.WANHops <= 0 {
			fail("region failover evicted %d replicas over %d WAN hops, want both > 0", fp.Evicted, fp.WANHops)
		}
		if fp.RecoveryMin < 0 || fp.RecoveryMin > float64(w.Minutes+1) {
			fail("recovery_min %v outside [0, %d]", fp.RecoveryMin, w.Minutes+1)
		}
	} else if fp.Spilled+fp.WANHops+fp.Evicted+fp.Unschedulable != 0 || fp.RecoveryMin != 0 {
		fail("single-region run reports region activity: %+v", fp)
	}
	return bad
}

// diffFingerprints names every field in which got differs from want.
func diffFingerprints(want, got fingerprint) []string {
	a, b := fingerprintFields(want), fingerprintFields(got)
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("%s: want %s, got %s", k, a[k], b[k]))
		}
	}
	return diffs
}

func fingerprintFields(fp fingerprint) map[string]string {
	data, _ := json.Marshal(fp) // a struct of numbers and strings always marshals
	var raw map[string]json.RawMessage
	_ = json.Unmarshal(data, &raw)
	out := make(map[string]string, len(raw))
	for k, v := range raw {
		out[k] = string(v)
	}
	return out
}
