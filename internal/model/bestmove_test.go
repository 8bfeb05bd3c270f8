package model

import (
	"math"
	"testing"

	"eflora/internal/geo"
	"eflora/internal/lora"
	"eflora/internal/mathx"
	"eflora/internal/rng"
)

// refEE is the per-candidate EE formula as the evaluator computed it
// before the candidate scan was hoisted: every per-gateway factor is
// recomputed from scratch through exposure callbacks. It reads only the
// committed state, so it is an independent oracle for the hoisted
// kernel.
func refEE(e *Evaluator, i int, sf lora.SF, tpmw float64, total int,
	collExposure func(k int) (visEx, qEx float64),
	interSum func(k int) float64, es float64,
) float64 {
	interval := e.p.IntervalFor(e.net, i, sf)
	alpha := math.Min(1, e.toaBySF[sfIndex(sf)]/interval)
	th := e.thLin[sfIndex(sf)]
	ss := e.ssMW[sfIndex(sf)]
	floorMW := math.Max(th*e.noiseMW, ss)
	prodFail := 1.0
	var wSum, wExposure float64
	for k := 0; k < e.g; k++ {
		pa := tpmw * e.gain[i][k]
		if pa <= 0 {
			continue
		}
		var pdr float64
		if e.mode == ModePPP {
			h := 1 - math.Exp(-alpha*float64(total))
			lambdaSC := e.density * float64(total) / float64(e.n)
			env := e.p.Environments[e.net.EnvOf(i)]
			l := mathx.LaplacePPPInterference(th*h/pa, tpmw*env.Amplitude(), lambdaSC, env.Exponent)
			pdr = l * math.Exp(-floorMW/pa)
		} else {
			visEx, qEx := collExposure(k)
			visOwn := math.Exp(-ss / pa)
			wSum += visOwn
			wExposure += visOwn * (alpha*visEx + qEx)
			snrFloor := floorMW
			if e.interSFRej > 0 {
				h := 1 - math.Exp(-alpha*float64(total))
				snrFloor = math.Max(th*(e.noiseMW+e.interSFRej*h*interSum(k)), ss)
			}
			pdr = math.Exp(-snrFloor / pa)
		}
		theta := e.capDP[k].ProbAtMostExcluding(e.q[i][k], e.p.GatewayCapacity-1)
		prodFail *= 1 - theta*pdr
	}
	prr := 1 - prodFail
	if e.mode == ModeExact && wSum > 0 {
		prr *= math.Exp(-wExposure / wSum)
	}
	if e.p.Objective == ObjectiveThroughput {
		return e.lbits * prr / interval
	}
	return e.lbits * prr / es
}

// refMinEE is the exact network minimum EE if device i moved to (sf,
// tpDBm, ch), computed the pre-hoist way: the candidate first, then every
// untouched group, then every member of the groups i leaves and joins,
// without early abort.
func refMinEE(e *Evaluator, i int, sf lora.SF, tpDBm float64, ch int) float64 {
	oldGr := e.groupOf(e.sf[i], e.ch[i])
	newGr := e.groupOf(sf, ch)
	tpmw := lora.DBmToMilliwatts(tpDBm)
	toa := e.toaBySF[sfIndex(sf)]
	es := e.p.Profile.TransmissionEnergy(tpDBm, toa)
	alphaNew := math.Min(1, toa/e.p.IntervalFor(e.net, i, sf))
	oldCh, newCh := e.ch[i], ch
	same := oldGr == newGr

	visNew := func(k int) float64 {
		pa := tpmw * e.gain[i][k]
		if pa <= 0 {
			return 0
		}
		return math.Exp(-e.ssMW[sfIndex(sf)] / pa)
	}
	qNew := func(k int) float64 { return alphaNew * visNew(k) }
	ownPGOld := func(k int) float64 { return e.tpMW[i] * e.gain[i][k] }
	ownPGNew := func(k int) float64 { return tpmw * e.gain[i][k] }

	newCount := newGr.count + 1
	if same {
		newCount = newGr.count
	}
	min := refEE(e, i, sf, tpmw, newCount,
		func(k int) (float64, float64) {
			v, q := newGr.visSum[k], newGr.qSum[k]
			if same {
				v -= e.vis[i][k]
				q -= e.q[i][k]
			}
			return v, q
		},
		func(k int) float64 {
			s := e.chSum[newCh][k] - newGr.sumPG[k]
			if !same && oldCh == newCh {
				s -= ownPGOld(k)
			}
			return s
		}, es)
	for si := range e.groups {
		for _, gr := range e.groups[si] {
			if gr != oldGr && gr != newGr && gr.minEE < min {
				min = gr.minEE
			}
		}
	}
	member := func(j, count int, coll func(k int) (float64, float64), inter func(k int) float64) {
		if ee := refEE(e, j, e.sf[j], e.tpMW[j], count, coll, inter, e.es[j]); ee < min {
			min = ee
		}
	}
	for j := range newGr.members {
		if same {
			if j == i {
				continue
			}
			member(j, newCount,
				func(k int) (float64, float64) {
					return newGr.visSum[k] - e.vis[i][k] + visNew(k) - e.vis[j][k],
						newGr.qSum[k] - e.q[i][k] + qNew(k) - e.q[j][k]
				},
				func(k int) float64 { return e.chSum[newCh][k] - newGr.sumPG[k] })
			continue
		}
		member(j, newCount,
			func(k int) (float64, float64) {
				return newGr.visSum[k] + visNew(k) - e.vis[j][k],
					newGr.qSum[k] + qNew(k) - e.q[j][k]
			},
			func(k int) float64 {
				s := e.chSum[newCh][k] - newGr.sumPG[k]
				if oldCh == newCh {
					s -= ownPGOld(k)
				}
				return s
			})
	}
	if !same {
		for j := range oldGr.members {
			if j == i {
				continue
			}
			member(j, oldGr.count-1,
				func(k int) (float64, float64) {
					return oldGr.visSum[k] - e.vis[i][k] - e.vis[j][k],
						oldGr.qSum[k] - e.q[i][k] - e.q[j][k]
				},
				func(k int) float64 {
					s := e.chSum[oldCh][k] - oldGr.sumPG[k]
					if newCh == oldCh {
						s += ownPGNew(k)
					}
					return s
				})
		}
	}
	return min
}

// oracleBestMove is BestMove's contract spelled out: enumerate the
// candidates in (SF, TP, channel) order and keep the first strictly
// better one, probing each with eval against the running best.
func oracleBestMove(e *Evaluator, i int, tpLevels []float64, skipCurrent bool, threshold float64,
	eval func(sf lora.SF, tp float64, ch int, best float64) float64,
) (best Move, bestEE float64, tried int) {
	cur := Move{SF: e.sf[i], TPdBm: e.tpDBm[i], Channel: e.ch[i]}
	bestEE = threshold
	for _, sf := range lora.SFs() {
		for _, tp := range tpLevels {
			if !Feasible(e.gain, i, sf, tp) {
				continue
			}
			for ch := 0; ch < e.nch; ch++ {
				if skipCurrent && (Move{SF: sf, TPdBm: tp, Channel: ch}) == cur {
					continue
				}
				tried++
				if got := eval(sf, tp, ch, bestEE); got > bestEE {
					best, bestEE = Move{SF: sf, TPdBm: tp, Channel: ch}, got
				}
			}
		}
	}
	return best, bestEE, tried
}

// crowdedAllocation draws a random allocation that packs devices into
// few (SF, channel) groups, so that candidate moves leave and join groups
// with several members: two thirds of them into six groups, or with
// packed all of them into four, two per channel, where the network
// minimum is always decided inside the groups a move touches.
func crowdedAllocation(n int, p Params, r *rng.RNG, packed bool) Allocation {
	tpLevels := p.Plan.TxPowerLevels()
	a := NewAllocation(n, p.Plan)
	for i := range a.SF {
		a.SF[i] = lora.SF7 + lora.SF(r.Intn(6))
		a.TPdBm[i] = tpLevels[r.Intn(len(tpLevels))]
		a.Channel[i] = r.Intn(p.Plan.NumChannels())
		switch {
		case packed:
			a.SF[i] = lora.SF9 + lora.SF(r.Intn(2))
			a.Channel[i] = r.Intn(2)
		case r.Intn(3) > 0:
			a.SF[i] = lora.SF9 + lora.SF(r.Intn(2))
			a.Channel[i] = r.Intn(3)
		}
	}
	return a
}

// bestMoveConfigs are the model variants the scan kernel branches on.
var bestMoveConfigs = []struct {
	name  string
	mode  Mode
	apply func(p *Params)
	fixed bool // scan a single pinned power, as EF-LoRa-14dBm does
}{
	{"exact", ModeExact, nil, false},
	{"ppp", ModePPP, nil, false},
	{"exact-intersf", ModeExact, func(p *Params) { p.InterSFRejectionDB = 16 }, false},
	{"ppp-intersf", ModePPP, func(p *Params) { p.InterSFRejectionDB = 16 }, false},
	{"exact-fixedtp", ModeExact, nil, true},
	{"exact-duty", ModeExact, func(p *Params) { p.TrafficDutyCycle = 0.1 }, false},
	{"ppp-duty", ModePPP, func(p *Params) { p.TrafficDutyCycle = 0.1 }, false},
	{"exact-throughput", ModeExact, func(p *Params) { p.Objective = ObjectiveThroughput }, false},
	{"ppp-throughput", ModePPP, func(p *Params) { p.Objective = ObjectiveThroughput }, false},
	{"exact-cap2", ModeExact, func(p *Params) { p.GatewayCapacity = 2 }, false},
}

// TestBestMoveMatchesOracle is the differential test of the hoisted
// candidate scan. On random deployments and allocations of every model
// variant, BestMove must return bit-for-bit what a candidate-by-candidate
// scan of MinEEIfAbove returns — same winner, same minimum, same count —
// with and without the current assignment, both at the greedy's
// threshold and at -Inf, where candidates the greedy would reject at once
// set the running best. MinEEIf must in turn equal the pre-hoist
// reference formula exactly. Committing winners between scans moves the
// evaluator through many group states.
func TestBestMoveMatchesOracle(t *testing.T) {
	for ci, cfg := range bestMoveConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			r := rng.New(uint64(4000 + ci))
			p := DefaultParams()
			if cfg.apply != nil {
				cfg.apply(&p)
			}
			net := &Network{
				Devices:  geo.UniformDisc(40+r.Intn(30), 3500, r),
				Gateways: geo.GridGateways(1+r.Intn(3), 3500),
			}
			tpLevels := p.Plan.TxPowerLevels()
			a := crowdedAllocation(net.N(), p, r, ci%2 == 1)
			if cfg.fixed {
				tpLevels = []float64{14}
			}
			ev, err := NewEvaluator(net, p, a, cfg.mode)
			if err != nil {
				t.Fatal(err)
			}
			probe := func(i int) func(sf lora.SF, tp float64, ch int, best float64) float64 {
				return func(sf lora.SF, tp float64, ch int, best float64) float64 {
					return ev.MinEEIfAbove(i, sf, tp, ch, best)
				}
			}
			for step := 0; step < 40; step++ {
				i := r.Intn(net.N())
				skip := step%2 == 0
				cur, _ := ev.MinEE()
				for _, threshold := range []float64{cur, math.Inf(-1)} {
					wantMv, wantEE, wantN := oracleBestMove(ev, i, tpLevels, skip, threshold, probe(i))
					gotMv, gotEE, gotN := ev.BestMove(i, tpLevels, skip, threshold)
					if gotMv != wantMv || math.Float64bits(gotEE) != math.Float64bits(wantEE) || gotN != wantN {
						t.Fatalf("step %d dev %d skip=%v threshold=%v: BestMove = (%+v, %v, %d), oracle (%+v, %v, %d)",
							step, i, skip, threshold, gotMv, gotEE, gotN, wantMv, wantEE, wantN)
					}
				}
				sf := lora.SF7 + lora.SF(r.Intn(6))
				tp := tpLevels[r.Intn(len(tpLevels))]
				ch := r.Intn(p.Plan.NumChannels())
				if got, want := ev.MinEEIf(i, sf, tp, ch), refMinEE(ev, i, sf, tp, ch); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: MinEEIf(%d, %v, %v, %d) = %v, reference %v", step, i, sf, tp, ch, got, want)
				}
				if mv, got, _ := ev.BestMove(i, tpLevels, skip, cur); got > cur {
					if err := ev.SetDevice(i, mv.SF, mv.TPdBm, mv.Channel); err != nil {
						t.Fatal(err)
					}
				}
				if step%10 == 9 {
					ev.RecomputeAll()
				}
			}
		})
	}
}

// TestMinEEIfMatchesReference sweeps every candidate of a few devices per
// model variant and requires MinEEIf to reproduce the pre-hoist formula
// bit for bit: same-group, same-channel and cross-channel moves each take
// different exposure and inter-SF paths.
func TestMinEEIfMatchesReference(t *testing.T) {
	for ci, cfg := range bestMoveConfigs {
		p := DefaultParams()
		if cfg.apply != nil {
			cfg.apply(&p)
		}
		r := rng.New(uint64(5000 + ci))
		net := &Network{
			Devices:  geo.UniformDisc(50, 3500, r),
			Gateways: geo.GridGateways(3, 3500),
		}
		tpLevels := p.Plan.TxPowerLevels()
		// The trio puts three devices in one group, so every peer of a
		// same-group move is a candidate for the network minimum.
		trio := &Network{Devices: net.Devices[:3], Gateways: net.Gateways}
		trioAlloc := crowdedAllocation(3, p, r, true)
		for i := range trioAlloc.SF {
			trioAlloc.SF[i], trioAlloc.Channel[i] = lora.SF9, 0
		}
		cases := []struct {
			net   *Network
			alloc Allocation
			devs  []int
		}{
			{net, crowdedAllocation(net.N(), p, r, false), []int{0, 17, 49}},
			{net, crowdedAllocation(net.N(), p, r, true), []int{0, 17, 49}},
			{trio, trioAlloc, []int{0, 1, 2}},
		}
		for _, c := range cases {
			ev, err := NewEvaluator(c.net, p, c.alloc, cfg.mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range c.devs {
				for _, sf := range lora.SFs() {
					for _, tp := range tpLevels {
						for ch := 0; ch < p.Plan.NumChannels(); ch++ {
							got, want := ev.MinEEIf(i, sf, tp, ch), refMinEE(ev, i, sf, tp, ch)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s, %d devices: MinEEIf(%d, %v, %v, %d) = %v, reference %v",
									cfg.name, c.net.N(), i, sf, tp, ch, got, want)
							}
						}
					}
				}
			}
		}
	}
}
