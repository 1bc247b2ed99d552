package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"accelproc/internal/dataflow"
	"accelproc/internal/synth"
)

// smokeFleetConfig is a tiny queue on the simulated platform, sized for CI.
func smokeFleetConfig() FleetConfig {
	return FleetConfig{
		Queue:         3,
		Spec:          synth.EventSpec{Name: "fleet-smoke", Files: 2, TotalPoints: 400, Magnitude: 4.8, Seed: 7},
		SimProcessors: 8,
	}
}

func TestRunFleetBenchSmoke(t *testing.T) {
	cfg := smokeFleetConfig()
	cfg.WorkRoot = t.TempDir()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := RunFleetBench(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queue != 3 || res.Files != 2 || res.Points <= 0 {
		t.Fatalf("load shape = %+v", res)
	}
	if !res.Simulated || res.Workers != 8 {
		t.Errorf("platform = simulated %v workers %d, want simulated 8", res.Simulated, res.Workers)
	}
	if res.SingleEvent <= 0 {
		t.Error("single-event reference latency missing")
	}
	if res.Sequential.Policy != "sequential" || len(res.Sequential.Latencies) != 3 || res.Sequential.Makespan <= 0 {
		t.Errorf("sequential baseline = %+v", res.Sequential)
	}
	if len(res.Policies) != 3 {
		t.Fatalf("policies = %d, want latency/balanced/throughput", len(res.Policies))
	}
	for _, p := range res.Policies {
		if len(p.Latencies) != 3 || p.Makespan <= 0 || p.P50 <= 0 || p.P99 < p.P50 || p.PointsPerSecond <= 0 {
			t.Errorf("policy %s result incomplete: %+v", p.Policy, p)
		}
		// Latency at admit=1 is sequential scheduling up to noise, so this
		// is a loose smoke guard, not the 5% acceptance tolerance.
		if p.Makespan.Seconds() > 1.25*res.Sequential.Makespan.Seconds() {
			t.Errorf("policy %s makespan %v far above sequential %v", p.Policy, p.Makespan, res.Sequential.Makespan)
		}
	}
	if lat := res.Policy(dataflow.Latency.String()); lat.Admit != 1 {
		t.Errorf("latency policy default admit = %d, want 1", lat.Admit)
	}
	out := FormatFleet(res)
	for _, want := range []string{"FLEET SATURATION", "sequential", "latency", "balanced", "throughput", "single-event reference"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if lines := FleetChecks(res); len(lines) != 3 {
		t.Errorf("checks = %v, want 3 lines", lines)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	ls := []time.Duration{40, 10, 30, 20} // unsorted on purpose
	if q := quantile(ls, 0.50); q != 20 {
		t.Errorf("p50 = %v, want 20", q)
	}
	if q := quantile(ls, 0.99); q != 40 {
		t.Errorf("p99 = %v, want 40", q)
	}
	if q := quantile(ls, 1.0); q != 40 {
		t.Errorf("p100 = %v, want 40", q)
	}
	if ls[0] != 40 {
		t.Error("quantile mutated its input")
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

// fleetFixture builds a synthetic saturation result for report-layer tests.
func fleetFixture(throughputMakespan time.Duration) FleetResult {
	mk := func(policy string, admit int, makespan time.Duration) FleetPolicyResult {
		p := FleetPolicyResult{
			Policy: policy, Admit: admit, Makespan: makespan,
			Latencies: []time.Duration{makespan / 2, makespan / 2, makespan},
		}
		finishPolicyResult(&p, 9000)
		return p
	}
	return FleetResult{
		Queue: 3, Files: 2, Points: 9000, Workers: 8, Simulated: true,
		SingleEvent: 40 * time.Millisecond,
		Sequential:  mk("sequential", 1, 300*time.Millisecond),
		Policies: []FleetPolicyResult{
			mk("latency", 1, 290*time.Millisecond),
			mk("balanced", 2, 220*time.Millisecond),
			mk("throughput", 8, throughputMakespan),
		},
	}
}

// TestAttachFleetCompareGate is the satellite-5 contract: fleet baselines
// flow through the existing -compare engine as variants of a synthetic
// event, so a slower fleet makespan trips the regression gate.
func TestAttachFleetCompareGate(t *testing.T) {
	oldRep := Report{Label: "base"}
	oldRep.AttachFleet(fleetFixture(150 * time.Millisecond))
	if oldRep.Fleet == nil || oldRep.Fleet.Events != 3 || len(oldRep.Fleet.Policies) != 3 {
		t.Fatalf("fleet block = %+v", oldRep.Fleet)
	}
	if oldRep.Fleet.Sequential.MakespanSeconds != 0.3 {
		t.Errorf("sequential makespan = %v", oldRep.Fleet.Sequential.MakespanSeconds)
	}

	newRep := Report{Label: "next"}
	newRep.AttachFleet(fleetFixture(200 * time.Millisecond)) // +33% on fleet-throughput

	c := Compare(oldRep, newRep)
	if len(c.OnlyOld) != 0 || len(c.OnlyNew) != 0 {
		t.Errorf("fleet rows unmatched: onlyOld %v onlyNew %v", c.OnlyOld, c.OnlyNew)
	}
	regs := c.Regressions(0.10)
	if len(regs) != 1 || regs[0].Event != "fleet-3ev" || regs[0].Variant != "fleet-throughput" {
		t.Fatalf("regressions = %+v, want the fleet-throughput cell", regs)
	}
	for _, want := range []string{"event fleet-3ev", "fleet-throughput", "batch-sequential", "REGRESSED"} {
		if !strings.Contains(c.Format(0.10), want) {
			t.Errorf("comparison output missing %q", want)
		}
	}

	// The encoded report round-trips the fleet block.
	data, err := newRep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"fleet"`, `"single_event_seconds"`, `"p99_seconds"`, `"fleet-3ev"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("encoded report missing %s", want)
		}
	}
}

func TestFleetChecksVerdicts(t *testing.T) {
	good := fleetFixture(150 * time.Millisecond) // 2x sequential throughput
	good.Policies[0].P99 = 44 * time.Millisecond // within 1.15x of 40ms
	for _, line := range FleetChecks(good) {
		if !strings.HasPrefix(line, "[PASS]") {
			t.Errorf("healthy fixture failed: %s", line)
		}
	}
	bad := fleetFixture(280 * time.Millisecond) // only 1.07x throughput
	bad.Policies[0].P99 = 90 * time.Millisecond // 2.25x a lone event
	lines := FleetChecks(bad)
	if !strings.HasPrefix(lines[0], "[FAIL]") || !strings.HasPrefix(lines[1], "[FAIL]") {
		t.Errorf("degraded fixture passed: %v", lines)
	}
	worse := fleetFixture(330 * time.Millisecond) // >5% slower than sequential
	if lines := FleetChecks(worse); !strings.HasPrefix(lines[2], "[FAIL]") {
		t.Errorf("slower-than-sequential fixture passed: %v", lines)
	}
}
