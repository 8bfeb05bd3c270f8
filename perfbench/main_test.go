package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"eflora/internal/netserver"
	"eflora/internal/scenario"
)

// shortSizes shrink every workload so a full run takes well under a
// second.
func shortSizes() sizes {
	return sizes{
		planA:      deploy{devices: 40, gateways: 2},
		planB:      deploy{devices: 30, gateways: 3, duty: 0.1},
		planACount: 1, planBCount: 2,

		simDevices: 400, simGateways: 3, simPackets: 5,
		confDevices: 200, confPackets: 5,

		serveDevices: 120, serveGateways: 2, servePackets: 12,
		serveDrift: 12, serveDriftSNRdB: 10,
		controlSteps: 4,
	}
}

func shortOptions(t *testing.T, name string, trace bool) options {
	return options{workload: name, seed: 3, seconds: 0.001, trace: trace, serveRate: 2e5, workDir: t.TempDir()}
}

// TestWorkloadsShort runs every workload at a tiny size, untraced and
// traced, and requires a correct result carrying exactly BENCHMARK.json's
// metrics.
func TestWorkloadsShort(t *testing.T) {
	for _, k := range workloads {
		name := k.name
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(shortOptions(t, name, traced), shortSizes(), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m.name, got, m.unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

func TestPlanCheckRejectsCorruptedOutput(t *testing.T) {
	sz := shortSizes()
	n, err := sz.planA.build(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planOne(n, 6, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlan(p); err != nil {
		t.Fatalf("clean plan rejected: %v", err)
	}
	for name, corrupt := range map[string]func(q *planned){
		"final min EE off":    func(q *planned) { q.rep.FinalMinEE *= 1 + 1e-6 },
		"final below initial": func(q *planned) { q.rep.InitialMinEE = 2 * q.rep.FinalMinEE; q.minEE = q.rep.FinalMinEE },
		"a packet missing":    func(q *planned) { q.minAttempts-- },
	} {
		q := *p
		corrupt(&q)
		if checkPlan(&q) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestSimulateChecksRejectCorruptedOutput(t *testing.T) {
	w := &simulateWorkload{sz: shortSizes()}
	if err := w.setup(4); err != nil {
		t.Fatal(err)
	}
	res, err := w.runSim()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSim(res, w.sz.simDevices, w.sz.simPackets, w.refDigest); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	res.CollisionLosses++
	if checkSim(res, w.sz.simDevices, w.sz.simPackets, w.refDigest) == nil {
		t.Error("altered collision counter passed")
	}
	res.CollisionLosses--
	res.Attempts[0]++
	if checkSim(res, w.sz.simDevices, w.sz.simPackets, w.refDigest) == nil {
		t.Error("altered attempt count passed")
	}

	cres, err := w.runConfirmed()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkConfirmed(cres, w.sz.confDevices, w.sz.confPackets, w.refConfD); err != nil {
		t.Fatalf("clean confirmed run rejected: %v", err)
	}
	if checkConfirmed(cres, w.sz.confDevices, w.sz.confPackets, w.refDigest) == nil {
		t.Error("wrong reference digest passed")
	}
	cres.Retransmissions++
	if checkConfirmed(cres, w.sz.confDevices, w.sz.confPackets, w.refConfD) == nil {
		t.Error("altered retransmission counter passed")
	}
}

func TestServeCheckRejectsCorruptedOutput(t *testing.T) {
	want := netserver.Counters{Uplinks: 10, Delivered: 6, Duplicates: 3, Rejected: 1}
	deltas := []scenario.Delta{
		{Version: 1, AtS: 1.5, Changes: []scenario.DeltaChange{{Device: 3, SF: 9, TPdBm: 14, Channel: 2}}},
		{Version: 1, AtS: 3.25, Resets: []int{4}},
	}
	clone := func() []scenario.Delta {
		b, _ := json.Marshal(deltas)
		var out []scenario.Delta
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if err := checkServe(want, want, 1, 1, clone(), deltas); err != nil {
		t.Fatalf("clean pass rejected: %v", err)
	}
	got := want
	got.Duplicates++
	if checkServe(got, want, 1, 1, clone(), deltas) == nil {
		t.Error("altered duplicate counter passed")
	}
	if checkServe(want, want, 0, 1, clone(), deltas) == nil {
		t.Error("missing downlink passed")
	}
	if checkServe(want, want, 1, 1, clone()[:1], deltas) == nil {
		t.Error("lost WAL delta passed")
	}
	bad := clone()
	bad[0].Changes[0].SF = 10
	if checkServe(want, want, 1, 1, bad, deltas) == nil {
		t.Error("altered WAL delta passed")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists in step with the program.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []entry
		prog []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.kind, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.kind, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
