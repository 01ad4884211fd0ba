package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestJSONReport runs a small verified load and checks the machine-
// readable report is complete and self-consistent.
func TestJSONReport(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-tenants", "10", "-events", "60", "-shards", "4",
		"-producers", "3", "-chunk", "7", "-verify", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if rep.Tool != "leaseload" {
		t.Errorf("tool = %q", rep.Tool)
	}
	if rep.Tenants != 10 {
		t.Errorf("tenants = %d, want 10", rep.Tenants)
	}
	if rep.TotalEvents <= 0 || rep.EventsPerSec <= 0 {
		t.Errorf("events = %d, rate = %v, want > 0", rep.TotalEvents, rep.EventsPerSec)
	}
	if rep.Engine.Events != rep.TotalEvents {
		t.Errorf("engine processed %d of %d events", rep.Engine.Events, rep.TotalEvents)
	}
	if rep.Engine.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.Engine.Dropped)
	}
	if len(rep.Engine.Shards) != 4 {
		t.Errorf("shard samples = %d, want 4", len(rep.Engine.Shards))
	}
	if rep.Verified == nil || !*rep.Verified {
		t.Error("run was not verified against Replay")
	}
	var n int
	for _, c := range rep.Domains {
		n += c
	}
	if n != rep.Tenants {
		t.Errorf("domain counts sum to %d, want %d", n, rep.Tenants)
	}
}

// TestTextReport checks the human-readable output carries the headline
// numbers.
func TestTextReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-tenants", "5", "-events", "40", "-shards", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"tenants: 5", "events/s", "submit latency", "shards:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestDeterministicWorkload asserts the synthesized traffic is a pure
// function of the seed: two runs report identical totals and costs.
func TestDeterministicWorkload(t *testing.T) {
	report := func() jsonReport {
		var buf bytes.Buffer
		if err := run([]string{"-tenants", "8", "-events", "50", "-json"}, &buf); err != nil {
			t.Fatal(err)
		}
		var rep jsonReport
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := report(), report()
	if a.TotalEvents != b.TotalEvents {
		t.Errorf("event totals differ: %d vs %d", a.TotalEvents, b.TotalEvents)
	}
	if a.Engine.Cost != b.Engine.Cost {
		t.Errorf("costs differ: %v vs %v", a.Engine.Cost, b.Engine.Cost)
	}
}

func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-tenants", "0"}, &buf); err == nil {
		t.Error("tenants=0 accepted")
	}
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-addr", "http://127.0.0.1:1"}, &buf); err == nil {
		t.Error("-addr without -remote accepted")
	}
	if err := run([]string{"-crash"}, &buf); err == nil {
		t.Error("-crash without -leased accepted")
	}
	if err := run([]string{"-leased", "/tmp/leased"}, &buf); err == nil {
		t.Error("-leased without -crash accepted")
	}
	if err := run([]string{"-data-dir", "/tmp/x"}, &buf); err == nil {
		t.Error("-data-dir without -crash accepted")
	}
	if err := run([]string{"-crash", "-leased", "/tmp/leased", "-remote"}, &buf); err == nil {
		t.Error("-crash combined with -remote accepted")
	}
	if err := run([]string{"-durable-bench", "-remote"}, &buf); err == nil {
		t.Error("-durable-bench combined with -remote accepted")
	}
}

// TestDurableBenchReport runs the fsync on/off pair on a small workload
// and checks the combined report: both halves complete, process every
// event, and are verified against Replay.
func TestDurableBenchReport(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-durable-bench", "-tenants", "8", "-events", "50",
		"-shards", "4", "-producers", "2", "-verify",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep durableReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if rep.Mode != "durable-bench" {
		t.Errorf("mode = %q", rep.Mode)
	}
	for name, half := range map[string]jsonReport{"fsync_off": rep.FsyncOff, "fsync_on": rep.FsyncOn} {
		if half.Engine.Events != rep.TotalEvents {
			t.Errorf("%s: processed %d of %d events", name, half.Engine.Events, rep.TotalEvents)
		}
		if half.Verified == nil || !*half.Verified {
			t.Errorf("%s: not verified against Replay", name)
		}
	}
	// Per-tenant results are byte-identical (both halves verified against
	// Replay above), but the engine-wide cost counter accumulates in
	// batch-processing order, so concurrent producers can reorder the
	// float additions by an ulp between the two runs.
	off, on := rep.FsyncOff.Engine.Cost, rep.FsyncOn.Engine.Cost
	if math.Abs(off-on) > 1e-9*math.Max(1, math.Abs(off)) {
		t.Errorf("fsync changed the workload outcome: %v vs %v", off, on)
	}
}

// TestCrashRecovery runs the real kill-and-recover drill: build the
// daemon, SIGKILL it mid-load, restart it on the same data dir, resume
// every tenant from its recovered count, and verify byte-identity with
// Replay of each tenant's full logged history.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash drill builds and spawns the daemon")
	}
	if runtime.GOOS == "windows" {
		t.Skip("drill relies on SIGKILL/SIGTERM")
	}
	bin := filepath.Join(t.TempDir(), "leased")
	if out, err := exec.Command("go", "build", "-o", bin, "../leased").CombinedOutput(); err != nil {
		t.Fatalf("build leased: %v\n%s", err, out)
	}
	var buf bytes.Buffer
	err := run([]string{
		"-crash", "-leased", bin, "-tenants", "8", "-events", "60",
		"-shards", "4", "-producers", "2", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if rep.Mode != "crash" {
		t.Errorf("mode = %q", rep.Mode)
	}
	if rep.Verified == nil || !*rep.Verified {
		t.Error("kill-and-recover run was not verified against Replay")
	}
	if rep.Engine.Events != rep.TotalEvents {
		t.Errorf("recovered daemon processed %d of %d events", rep.Engine.Events, rep.TotalEvents)
	}
}

// TestRemoteVerified drives the whole remote path end to end: an
// in-process loopback daemon, sessions opened from wire specs, events
// submitted over HTTP, and every tenant's result verified byte-identical
// against a single-threaded Replay of a spec-built leaser.
func TestRemoteVerified(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-remote", "-tenants", "10", "-events", "60", "-shards", "4",
		"-producers", "3", "-chunk", "9", "-verify", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if rep.Mode != "remote" {
		t.Errorf("mode = %q, want remote", rep.Mode)
	}
	if rep.Verified == nil || !*rep.Verified {
		t.Error("remote run was not verified against Replay")
	}
	if rep.Engine.Events != rep.TotalEvents {
		t.Errorf("daemon processed %d of %d events", rep.Engine.Events, rep.TotalEvents)
	}
	if rep.Engine.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.Engine.Dropped)
	}
}

// TestRemoteMatchesEngineMode asserts the HTTP boundary changes nothing
// about the workload's outcome: both modes run with -verify, which checks
// every tenant's run, cost and snapshot byte for byte against Replay, and
// report the same event total and engine-side cumulative cost. That cost
// is a float sum built in each shard's apply order, which depends on how
// the producers interleave, so it is compared only to within float
// reassociation error.
func TestRemoteMatchesEngineMode(t *testing.T) {
	report := func(remote bool) jsonReport {
		args := []string{"-tenants", "8", "-events", "50", "-verify", "-json"}
		if remote {
			args = append(args, "-remote")
		}
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		var rep jsonReport
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Verified == nil || !*rep.Verified {
			t.Fatalf("remote=%v: tenants not verified against Replay", remote)
		}
		return rep
	}
	local, remote := report(false), report(true)
	if local.TotalEvents != remote.TotalEvents {
		t.Errorf("event totals differ: engine %d vs remote %d", local.TotalEvents, remote.TotalEvents)
	}
	if diff := math.Abs(local.Engine.Cost - remote.Engine.Cost); diff > 1e-12*math.Abs(local.Engine.Cost) {
		t.Errorf("costs differ: engine %v vs remote %v", local.Engine.Cost, remote.Engine.Cost)
	}
}

// TestRampReport runs a small stepped ramp with a generous SLA so every
// step passes, and checks the ramp section is complete and the knee is
// mirrored into the report's top-level throughput figure.
func TestRampReport(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-ramp", "-tenants", "12", "-events", "40", "-step-tenants", "4",
		"-step-duration", "10s", "-sla-p99", "10000", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	if rep.Mode != "ramp" {
		t.Errorf("mode = %q, want ramp", rep.Mode)
	}
	if rep.Ramp == nil {
		t.Fatal("report has no ramp section")
	}
	if got := len(rep.Ramp.Steps); got != 3 {
		t.Errorf("steps = %d, want 3 (12 tenants in steps of 4)", got)
	}
	for i, s := range rep.Ramp.Steps {
		if want := 4 * (i + 1); s.Tenants != want {
			t.Errorf("step %d tenants = %d, want %d", i, s.Tenants, want)
		}
		if !s.SLAMet || !s.Completed {
			t.Errorf("step %d broke a 10s SLA: %+v", i, s)
		}
		if s.SubmittedEvents <= 0 || s.EventsPerSec <= 0 {
			t.Errorf("step %d has no throughput: %+v", i, s)
		}
	}
	if rep.Ramp.MaxTenantsUnderSLA != 12 {
		t.Errorf("knee = %d tenants, want 12", rep.Ramp.MaxTenantsUnderSLA)
	}
	last := rep.Ramp.Steps[len(rep.Ramp.Steps)-1]
	if rep.Ramp.MaxEventsPerSecUnderSLA != last.EventsPerSec {
		t.Errorf("knee throughput %v != last step %v", rep.Ramp.MaxEventsPerSecUnderSLA, last.EventsPerSec)
	}
	if rep.EventsPerSec != rep.Ramp.MaxEventsPerSecUnderSLA {
		t.Errorf("top-level events_per_sec %v does not mirror the knee %v",
			rep.EventsPerSec, rep.Ramp.MaxEventsPerSecUnderSLA)
	}
}

// TestRampFirstStepBreaks: an impossible SLA means no sustainable step,
// and the text report says so instead of inventing a knee.
func TestRampFirstStepBreaks(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-ramp", "-tenants", "4", "-events", "30", "-step-tenants", "4",
		"-sla-p99", "0.0001",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "none — the first step already broke the SLA") {
		t.Errorf("output missing the no-knee verdict:\n%s", out)
	}
}

// TestArrivalDeterminism: the shaped arrival processes are pure
// functions of the seed, and unknown names are rejected up front.
func TestArrivalDeterminism(t *testing.T) {
	for _, name := range []string{"diurnal", "bursty"} {
		report := func() jsonReport {
			var buf bytes.Buffer
			args := []string{"-tenants", "8", "-events", "50", "-arrival", name, "-json"}
			if err := run(args, &buf); err != nil {
				t.Fatal(err)
			}
			var rep jsonReport
			if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			return rep
		}
		a, b := report(), report()
		if a.TotalEvents <= 0 {
			t.Errorf("%s: no events submitted", name)
		}
		// Engine-wide cost is compared with an ulp-scale tolerance: the
		// counter accumulates in batch-processing order, which concurrent
		// producers reorder between runs (per-tenant costs are exact).
		if a.TotalEvents != b.TotalEvents ||
			math.Abs(a.Engine.Cost-b.Engine.Cost) > 1e-9*math.Max(1, math.Abs(a.Engine.Cost)) {
			t.Errorf("%s: runs differ: %d/%v vs %d/%v",
				name, a.TotalEvents, a.Engine.Cost, b.TotalEvents, b.Engine.Cost)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-arrival", "lumpy"}, &buf); err == nil {
		t.Error("unknown arrival process accepted")
	}
}

// TestZipfSizesFlag: skewed per-tenant volumes stay deterministic and
// reshape the load without dropping it.
func TestZipfSizesFlag(t *testing.T) {
	report := func() jsonReport {
		var buf bytes.Buffer
		if err := run([]string{"-tenants", "8", "-events", "50", "-zipf-sizes", "1.2", "-json", "-verify"}, &buf); err != nil {
			t.Fatal(err)
		}
		var rep jsonReport
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := report(), report()
	if a.TotalEvents <= 0 || a.TotalEvents != b.TotalEvents {
		t.Errorf("zipf runs not deterministic: %d vs %d", a.TotalEvents, b.TotalEvents)
	}
	if a.Verified == nil || !*a.Verified {
		t.Error("zipf-skewed run was not verified against Replay")
	}
}

// TestGateFlag: a run gated against its own snapshot passes, and a
// doctored reference with an inflated baseline fails the gate.
func TestGateFlag(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.json")
	args := []string{"-tenants", "8", "-events", "50", "-json"}
	var buf bytes.Buffer
	if err := run(append(args, "-out", ref), &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	// Generous tolerance: the two runs measure real wall-clock, so allow
	// wide scheduling noise — the pass/fail mechanics are what's tested.
	if err := run(append(args, "-gate", ref, "-gate-tolerance", "0.9"), &buf); err != nil {
		t.Fatalf("gate against own snapshot failed: %v", err)
	}
	if !strings.Contains(buf.String(), "gate:") {
		t.Errorf("output missing the gate verdict:\n%s", buf.String())
	}

	raw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap["events_per_sec"] = 1e12 // no machine sustains this baseline
	doctored, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = run(append(args, "-gate", bad, "-gate-tolerance", "0.15"), &buf)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("gate against inflated baseline: err = %v, want regression", err)
	}
}

// TestRampBadFlags: the ramp and gate flags reject inconsistent
// combinations up front.
func TestRampBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for name, args := range map[string][]string{
		"-ramp with -remote":            {"-ramp", "-remote"},
		"-ramp with -durable-bench":     {"-ramp", "-durable-bench"},
		"-ramp with -verify":            {"-ramp", "-verify"},
		"-sla-p99 without -ramp":        {"-sla-p99", "3"},
		"-step-tenants without -ramp":   {"-step-tenants", "4"},
		"-gate-tolerance without -gate": {"-gate-tolerance", "0.2"},
		"zero sla":                      {"-ramp", "-sla-p99", "0"},
		"bad percentile":                {"-ramp", "-sla-percentile", "1.5"},
		"zero step":                     {"-ramp", "-step-tenants", "0"},
		"negative zipf":                 {"-zipf-sizes", "-1"},
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
