package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/model"
	"eflora/internal/rng"
	"eflora/internal/sim"
)

// deploy is one generated deployment: devices uniform in the 5 km disc,
// gateways on the paper's grid. duty > 0 switches to duty-cycle-driven
// traffic.
type deploy struct {
	devices, gateways int
	duty              float64
}

// sizes are the workload input sizes; tests shrink them.
type sizes struct {
	planA, planB           deploy
	planACount, planBCount int

	simDevices, simGateways, simPackets int
	confDevices, confPackets            int

	serveDevices, serveGateways, servePackets int
	serveDrift                                int
	serveDriftSNRdB                           float64
	controlSteps                              int
}

func defaultSizes() sizes {
	return sizes{
		// A: default traffic, margin-limited. B: the figures' 10% duty
		// cycle, collision-limited.
		planA: deploy{devices: 300, gateways: 3},
		planB: deploy{devices: 150, gateways: 5, duty: 0.1},
		// Several geometries per regime average out the spread in
		// per-candidate cost between deployments.
		planACount: 2, planBCount: 3,

		simDevices: 20000, simGateways: 9, simPackets: 20,
		confDevices: 5000, confPackets: 20,

		serveDevices: 2000, serveGateways: 5, servePackets: 50,
		serveDrift: 100, serveDriftSNRdB: 10,
		controlSteps: 20,
	}
}

// build generates the deployment for seed.
func (d deploy) build(seed uint64) (*core.Network, error) {
	p := model.DefaultParams()
	p.TrafficDutyCycle = d.duty
	return core.Build(core.Scenario{Devices: d.devices, Gateways: d.gateways, Seed: seed, Params: &p})
}

// planWorkload allocates, scores and simulates deployments of two
// regimes with EF-LoRa at program defaults: sz.planACount A and
// sz.planBCount B deployments.
type planWorkload struct {
	sz     sizes
	seed   uint64
	nets   []*core.Network
	regime []int // 0 = A, 1 = B
}

func (w *planWorkload) setup(seed uint64) error {
	w.seed = seed
	w.nets, w.regime = nil, nil
	for i := 0; i < w.sz.planACount+w.sz.planBCount; i++ {
		d, regime := w.sz.planA, 0
		if i >= w.sz.planACount {
			d, regime = w.sz.planB, 1
		}
		n, err := d.build(seed*8 + uint64(i))
		if err != nil {
			return err
		}
		w.nets = append(w.nets, n)
		w.regime = append(w.regime, regime)
	}
	return nil
}

// planned is what planning one deployment produced.
type planned struct {
	rep        alloc.Report
	minEE      float64 // a fresh evaluator's min EE of the allocation
	wallS      float64 // allocate + score + simulate
	cpuS       float64 // process CPU time of the same
	allocHeapB uint64
	// minAttempts is the fewest packets any device sent; the slowest
	// reporter sends exactly the configured count, faster ones more.
	minAttempts int
}

// planOne allocates one deployment with EF-LoRa at its defaults, scores
// the allocation with a fresh evaluator and simulates it.
func planOne(n *core.Network, seed uint64, rec *recorder, id uint32) (*planned, error) {
	out := &planned{}
	t0, c0 := time.Now(), cpuTime()
	root := rec.begin(spPlanDeployment, id, -1)

	heap0 := heapAllocBytes(rec != nil)
	sp := rec.begin(spAlloc, id, root)
	a, rep, err := alloc.NewEFLoRa(alloc.Options{}).AllocateWithReport(n.Net, n.Params, rng.New(seed))
	rec.end(sp)
	out.allocHeapB = heapAllocBytes(rec != nil) - heap0
	if err != nil {
		return nil, err
	}
	out.rep = rep

	sp = rec.begin(spModel, id, root)
	ev, err := model.NewEvaluator(n.Net, n.Params, a, model.ModeExact)
	if err == nil {
		out.minEE, _ = ev.MinEE()
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin(spSim, id, root)
	res, err := sim.Run(n.Net, n.Params, a, sim.Config{Seed: seed})
	rec.end(sp)
	rec.end(root)
	out.wallS, out.cpuS = time.Since(t0).Seconds(), cpuTime()-c0
	if err != nil {
		return nil, err
	}
	out.minAttempts = res.Attempts[0]
	for _, x := range res.Attempts {
		out.minAttempts = min(out.minAttempts, x)
	}
	return out, nil
}

// planPackets is sim.Config's default PacketsPerDevice, which plan's
// simulation runs at.
const planPackets = 100

// minEETolerance is the relative agreement model's own tests require
// between an incrementally updated evaluator and a fresh one
// (TestSetDeviceMatchesFreshEvaluator). The greedy reports FinalMinEE
// from its incrementally updated evaluator, which can differ from a
// fresh evaluation in the last bits; the gap is reported in ulps as
// alloc.min_ee_ulp_gap.
const minEETolerance = 1e-9

// checkPlan is plan's correctness check: a fresh evaluator reproduces
// the reported final min EE, the greedy never ends below its start, and
// the simulation ran every device's packets.
func checkPlan(p *planned) error {
	if math.Abs(p.minEE-p.rep.FinalMinEE) > minEETolerance*math.Abs(p.minEE) {
		return fmt.Errorf("fresh evaluator min EE %v != reported FinalMinEE %v", p.minEE, p.rep.FinalMinEE)
	}
	if !(p.rep.FinalMinEE >= p.rep.InitialMinEE) {
		return fmt.Errorf("FinalMinEE %v below InitialMinEE %v", p.rep.FinalMinEE, p.rep.InitialMinEE)
	}
	if p.minAttempts != planPackets {
		return fmt.Errorf("slowest device sent %d packets, want %d", p.minAttempts, planPackets)
	}
	return nil
}

func (w *planWorkload) close() error { return nil }

func (w *planWorkload) measure(seconds float64, tr *trace) (*outcome, error) {
	rec := tr.recorder("main", 64, 1)
	out := &outcome{layers: map[string]float64{}}
	var cands, cpus, walls, counts [2]float64
	var roundWall, planS, heapB, passes, commits, minEE []float64
	var tried, ulps float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		var rw, rh, rp, rc, rt, re float64
		var regimeWall [2]float64
		for i, n := range w.nets {
			id := uint32(round*len(w.nets) + i)
			if err := out.peaksMB.start(); err != nil {
				return nil, err
			}
			p, err := planOne(n, w.seed*8+uint64(i)+4, rec, id)
			if err != nil {
				return nil, err
			}
			if err := out.peaksMB.stop(); err != nil {
				return nil, err
			}
			out.attempted++
			if err := checkPlan(p); err != nil {
				out.fail("plan deployment %d: %v", i, err)
			}
			r := w.regime[i]
			cands[r] += float64(p.rep.CandidatesTried)
			cpus[r] += p.cpuS
			walls[r] += p.wallS
			counts[r]++
			regimeWall[r] += p.wallS
			rw += p.wallS
			rh += float64(p.allocHeapB)
			rp += float64(p.rep.Passes)
			rc += float64(p.rep.Improvements)
			rt += float64(p.rep.CandidatesTried)
			re += p.rep.FinalMinEE / 1000 / float64(len(w.nets)) // bits/J -> bits/mJ, mean
			ulps = max(ulps, ulpGap(p.minEE, p.rep.FinalMinEE))
		}
		roundWall = append(roundWall, rw)
		// plan_s is one A plus one B deployment, the planner's pair.
		planS = append(planS, regimeWall[0]/float64(w.sz.planACount)+regimeWall[1]/float64(w.sz.planBCount))
		heapB = append(heapB, rh)
		passes = append(passes, rp)
		commits = append(commits, rc/rt)
		minEE = append(minEE, re)
		tried += rt
	}
	out.primary = cands[0] / cpus[0]
	out.secondary = cands[1] / cpus[1]
	out.workCPU = cpus[0] + cpus[1]
	rounds := len(roundWall)
	out.named = []named{
		{"plan_s", median(planS), "s", rounds},
		{"min_ee_bits_per_mj", median(minEE), "bits/mJ", rounds},
		{"a_candidates_per_s", cands[0] / walls[0], "1/s", int(counts[0])},
		{"b_candidates_per_s", cands[1] / walls[1], "1/s", int(counts[1])},
		{"a_candidates_per_cpu_s", out.primary, "1/cpu_s", int(counts[0])},
		{"b_candidates_per_cpu_s", out.secondary, "1/cpu_s", int(counts[1])},
	}
	if tr != nil {
		tot := tr.totals()
		perRound := func(name uint8) float64 { return float64(tot[name].ns) / 1e9 / float64(rounds) }
		out.layers["alloc.busy_s"] = perRound(spAlloc)
		out.layers["alloc.candidates"] = tried / float64(rounds)
		out.layers["alloc.passes"] = median(passes)
		out.layers["alloc.ns_per_candidate"] = float64(tot[spAlloc].ns) / tried
		out.layers["alloc.commit_ratio"] = median(commits)
		out.layers["alloc.heap_mb"] = median(heapB) / 1e6
		out.layers["alloc.min_ee_bits_per_mj"] = median(minEE)
		out.layers["alloc.min_ee_ulp_gap"] = ulps
		out.layers["model.score_s"] = perRound(spModel)
		out.layers["sim.busy_s"] = perRound(spSim)
		layerNs := tot[spAlloc].ns + tot[spModel].ns + tot[spSim].ns
		wall := sum(roundWall)
		out.residualFrac = (wall - float64(layerNs)/1e9) / wall
	}
	return out, nil
}

// heapAllocBytes is the cumulative heap allocation counter, read only
// when on (traced passes): reading it stops the world.
func heapAllocBytes(on bool) uint64 {
	if !on {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// ulpGap is the number of representable float64 values between a and b
// (both positive).
func ulpGap(a, b float64) float64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		x, y = y, x
	}
	return float64(y - x)
}
