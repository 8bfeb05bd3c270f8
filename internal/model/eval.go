package model

import (
	"fmt"
	"math"

	"eflora/internal/lora"
	"eflora/internal/mathx"
)

// Mode selects how the evaluator computes the co-SF interference term of
// the PDR.
type Mode int

const (
	// ModeExact models the paper's collision rule directly: a packet
	// survives at a gateway only if no co-SF co-channel transmission that
	// is visible to that gateway overlaps it in time (the unslotted-ALOHA
	// vulnerable window), matching what the packet simulator implements.
	ModeExact Mode = iota + 1
	// ModePPP is the paper's reduced-overhead formulation (Eq. 18-20):
	// co-SF interference enters the SNR through the Laplace transform of
	// a Poisson point process of the group's density.
	ModePPP
)

// group aggregates the devices sharing one (SF, channel) pair.
type group struct {
	count   int
	members map[int]struct{}
	// sumPG[k] = Σ_{j in group} p_j·gain_{j,k} (mW): the mean co-channel
	// power used by the inter-SF soft-interference extension.
	sumPG []float64
	// visSum[k] = Σ_j vis_{j,k} and qSum[k] = Σ_j α_j·vis_{j,k}: the
	// collision-exposure sums of the hard overlap rule.
	visSum, qSum []float64
	// minEE over members; +Inf when empty. Kept fresh by SetDevice and
	// RecomputeAll, so read paths never have to refresh it.
	minEE    float64
	minIndex int
}

// Evaluator computes per-device energy efficiency (paper Eq. 17/18) for a
// network under an allocation, with O(G)-per-device incremental updates so
// the greedy allocator can evaluate candidate re-allocations cheaply.
//
// An Evaluator is not safe for concurrent use. Even the query methods
// MinEEIf, MinEEIfAbove and BestMove stage their hoisted per-candidate
// values in evaluator-owned scratch, so callers that fan out give each
// goroutine its own evaluator (the hierarchical allocator builds one per
// cell).
type Evaluator struct {
	net  *Network
	p    Params
	mode Mode

	n, g, nch int

	// Static caches; the per-SF tables are indexed by sfIndex.
	gain    [][]float64 // [device][gateway] linear attenuation
	toaBySF [6]float64
	thLin   [6]float64 // linear SNR threshold
	ssMW    [6]float64 // sensitivity in mW
	noiseMW float64
	lbits   float64
	density float64 // devices per m² (for ModePPP)

	// Current assignment.
	sf    []lora.SF
	tpDBm []float64
	tpMW  []float64
	ch    []int
	alpha []float64   // duty cycle T_i / T_g
	es    []float64   // energy per transmission attempt (J)
	vis   [][]float64 // [device][gateway] P{signal clears sensitivity}
	q     [][]float64 // [device][gateway] α·vis, the capacity trial prob
	pdr0  [][]float64 // [device][gateway] noise-floor PDR exp(-floor/(p·a))

	groups [][]*group // [sfIndex][channel]
	chSum  [][]float64
	capDP  []*mathx.PoissonBinomial

	interSFRej float64 // linear rejection factor; 0 disables

	ee []float64

	scan moveScan
}

// moveScan is the hoisted state of one device's candidate scan. BestMove
// and MinEEIfAbove fill it in two stages — per device, per (SF, TP) — so
// each channel candidate only pays for what depends on its channel.
type moveScan struct {
	// Per device.
	i     int
	oldGr *group
	// min1 and min2 are the two smallest cached minima of the groups
	// other than oldGr, and min1Gr the group holding min1: the untouched
	// groups of a candidate moving to newGr bound the network minimum by
	// min2 if newGr is min1Gr, else by min1.
	min1, min2 float64
	min1Gr     *group
	// leaveVis and leaveQ are oldGr's exposure sums without i, the base
	// its remaining members see once i leaves; negPGOld[k] is
	// -(p_i·gain_{i,k}) under the committed assignment.
	leaveVis, leaveQ, negPGOld []float64
	// leaveMin is the minimum EE of oldGr's remaining members once i has
	// left. Without the inter-SF extension it does not depend on where i
	// goes, so it is computed once per scan (leaveKnown).
	leaveKnown bool
	leaveMin   float64

	// Per (SF, TP): i's duty cycle, energy per attempt and per-gateway
	// visibility, trial probability, noise-floor PDR and mean power under
	// the candidate.
	sf                  lora.SF
	alpha, tpmw, es     float64
	vis, q, pdr0, pgNew []float64

	// Per candidate: the exposure base of the candidate group's members.
	joinVis, joinQ []float64
}

// Move is one (SF, TP, channel) assignment of a device.
type Move struct {
	SF      lora.SF
	TPdBm   float64
	Channel int
}

// NewEvaluator builds an evaluator for the given network, parameters and
// initial allocation. The mode selects exact or PPP interference handling.
func NewEvaluator(net *Network, p Params, alloc Allocation, mode Mode) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(p); err != nil {
		return nil, err
	}
	if err := alloc.Validate(net.N(), p); err != nil {
		return nil, err
	}
	if mode != ModeExact && mode != ModePPP {
		return nil, fmt.Errorf("model: invalid mode %d", mode)
	}
	e := &Evaluator{
		net:  net,
		p:    p,
		mode: mode,
		n:    net.N(),
		g:    net.G(),
		nch:  p.Plan.NumChannels(),
	}
	e.lbits = p.AppPayloadBits()
	e.noiseMW = lora.DBmToMilliwatts(p.NoiseDBm)
	if p.InterSFRejectionDB > 0 {
		e.interSFRej = lora.DBToLinear(-p.InterSFRejectionDB)
	}
	for _, s := range lora.SFs() {
		si := sfIndex(s)
		e.toaBySF[si] = p.TimeOnAir(s)
		e.thLin[si] = lora.DBToLinear(lora.SNRThresholdDB(s))
		e.ssMW[si] = lora.DBmToMilliwatts(lora.SensitivityDBm(s))
	}
	e.gain = Gains(net, p)
	e.density = deviceDensity(net)

	e.sf = make([]lora.SF, e.n)
	e.tpDBm = make([]float64, e.n)
	e.tpMW = make([]float64, e.n)
	e.ch = make([]int, e.n)
	e.alpha = make([]float64, e.n)
	e.es = make([]float64, e.n)
	e.vis = make([][]float64, e.n)
	e.q = make([][]float64, e.n)
	e.pdr0 = make([][]float64, e.n)
	// One backing array for all per-device gateway rows and the scan
	// scratch: per-row make calls were half the allocator's per-evaluator
	// allocation count.
	rows := make([]float64, (3*e.n+9)*e.g)
	row := func() []float64 {
		r := rows[:e.g:e.g]
		rows = rows[e.g:]
		return r
	}
	for i := 0; i < e.n; i++ {
		e.vis[i], e.q[i], e.pdr0[i] = row(), row(), row()
	}
	s := &e.scan
	s.leaveVis, s.leaveQ, s.negPGOld = row(), row(), row()
	s.vis, s.q, s.pdr0, s.pgNew = row(), row(), row(), row()
	s.joinVis, s.joinQ = row(), row()
	e.ee = make([]float64, e.n)
	copy(e.sf, alloc.SF)
	copy(e.tpDBm, alloc.TPdBm)
	copy(e.ch, alloc.Channel)

	e.groups = make([][]*group, 6)
	for si := range e.groups {
		e.groups[si] = make([]*group, e.nch)
		for c := range e.groups[si] {
			e.groups[si][c] = &group{
				members:  make(map[int]struct{}),
				sumPG:    make([]float64, e.g),
				visSum:   make([]float64, e.g),
				qSum:     make([]float64, e.g),
				minEE:    math.Inf(1),
				minIndex: -1,
			}
		}
	}
	e.chSum = make([][]float64, e.nch)
	for c := range e.chSum {
		e.chSum[c] = make([]float64, e.g)
	}

	for i := 0; i < e.n; i++ {
		e.tpMW[i] = lora.DBmToMilliwatts(e.tpDBm[i])
		toa := e.toaBySF[sfIndex(e.sf[i])]
		interval := p.IntervalFor(net, i, e.sf[i])
		e.alpha[i] = math.Min(1, toa/interval)
		e.es[i] = p.Profile.TransmissionEnergy(e.tpDBm[i], toa)
		gr := e.groupOf(e.sf[i], e.ch[i])
		gr.count++
		gr.members[i] = struct{}{}
		e.footprint(i, e.sf[i], e.tpMW[i], e.alpha[i], e.vis[i], e.q[i], e.pdr0[i])
		for k := 0; k < e.g; k++ {
			gr.sumPG[k] += e.tpMW[i] * e.gain[i][k]
			gr.visSum[k] += e.vis[i][k]
			gr.qSum[k] += e.q[i][k]
			e.chSum[e.ch[i]][k] += e.tpMW[i] * e.gain[i][k]
		}
	}
	e.capDP = make([]*mathx.PoissonBinomial, e.g)
	for k := 0; k < e.g; k++ {
		e.capDP[k] = mathx.NewPoissonBinomial(e.p.GatewayCapacity)
	}
	e.rebuildCapacity()
	e.RecomputeAll()
	return e, nil
}

// deviceDensity estimates devices per square meter from the deployment's
// bounding circle around its centroid.
func deviceDensity(net *Network) float64 {
	var cx, cy float64
	for _, d := range net.Devices {
		cx += d.X
		cy += d.Y
	}
	nf := float64(len(net.Devices))
	cx /= nf
	cy /= nf
	maxR := 1.0
	for _, d := range net.Devices {
		r := math.Hypot(d.X-cx, d.Y-cy)
		if r > maxR {
			maxR = r
		}
	}
	return nf / (math.Pi * maxR * maxR)
}

func sfIndex(s lora.SF) int { return int(s) - int(lora.SF7) }

func (e *Evaluator) groupOf(s lora.SF, c int) *group { return e.groups[sfIndex(s)][c] }

// footprint fills device i's per-gateway visibility P{signal clears the
// sensitivity of SF sf under Rayleigh fading} = exp(-ss/(p·a)), capacity
// trial probability α·vis and noise-floor PDR exp(-floor/(p·a)) for
// transmitting at tpmw mW with duty cycle alpha. Out-of-range gateways
// (p·a <= 0) get zeros.
//
//eflora:hotpath
func (e *Evaluator) footprint(i int, sf lora.SF, tpmw, alpha float64, vis, q, pdr0 []float64) {
	si := sfIndex(sf)
	ss := e.ssMW[si]
	floorMW := math.Max(e.thLin[si]*e.noiseMW, ss)
	for k, gk := range e.gain[i] {
		pa := tpmw * gk
		if pa <= 0 {
			vis[k], q[k], pdr0[k] = 0, 0, 0
			continue
		}
		vis[k] = math.Exp(-ss / pa)
		q[k] = alpha * vis[k]
		pdr0[k] = math.Exp(-floorMW / pa)
	}
}

// rebuildCapacity recomputes every per-gateway Poisson-binomial capacity
// distribution from scratch, clearing any numerical drift from incremental
// removals. The DP tables are allocated once in NewEvaluator and reset in
// place here, keeping refinement passes allocation-free.
func (e *Evaluator) rebuildCapacity() {
	for _, dp := range e.capDP {
		dp.Reset()
	}
	for i := 0; i < e.n; i++ {
		for k := 0; k < e.g; k++ {
			e.capDP[k].Add(e.q[i][k])
		}
	}
}

// exposure is the neighborhood a device's EE is evaluated in, per gateway
// k: the group's co-SF collision sums visBase[k] and qBase[k] — minus the
// device's own registered vis and q when subOwn is set — and the
// co-channel other-SF mean power chSum[k]-sumPG[k], plus pgAdj[k] when
// pgAdj is non-nil (read only by the inter-SF extension).
type exposure struct {
	visBase, qBase      []float64
	subOwn              bool
	chSum, sumPG, pgAdj []float64
}

// eeAt returns the energy efficiency of device i if it used (sf, tpmw) with
// duty cycle alpha and energy per attempt es, in a group of `total`
// devices with exposure ex. vis and pdr0 are i's per-gateway visibility
// and noise-floor PDR under that assignment (footprint). The
// gateway-capacity factor excludes i's currently registered trial
// probability.
//
//eflora:hotpath
func (e *Evaluator) eeAt(i int, sf lora.SF, tpmw, alpha, es float64, total int, vis, pdr0 []float64, ex *exposure) float64 {
	si := sfIndex(sf)
	th := e.thLin[si]
	ss := e.ssMW[si]
	gain, visI, qI := e.gain[i], e.vis[i], e.q[i]
	// h is the paper's Eq. 14 contention factor.
	var h float64
	if e.mode == ModePPP || e.interSFRej > 0 {
		h = 1 - math.Exp(-alpha*float64(total))
	}
	prodFail := 1.0
	// Collision survival is a SHARED event across gateways: an
	// overlapping co-group transmission occupies the same time slice at
	// every gateway where it is visible, so modelling it independently
	// per gateway (the paper's Eq. 5 assumption) overstates the
	// diversity gain. We apply one survival factor, weighting each
	// gateway's exposure by how much this device relies on it.
	var wSum, wExposure float64
	for k := 0; k < e.g; k++ {
		pa := tpmw * gain[k]
		if pa <= 0 {
			continue
		}
		var pdr float64
		if e.mode == ModePPP {
			// Paper Eq. 18: the Laplace transform of PPP interference of
			// the group's density takes the place of the explicit
			// collision term.
			lambdaSC := e.density * float64(total) / float64(e.n)
			env := e.p.Environments[e.net.EnvOf(i)]
			pdr = mathx.LaplacePPPInterference(th*h/pa, tpmw*env.Amplitude(), lambdaSC, env.Exponent) * pdr0[k]
		} else {
			// Hard-collision model matching the simulator (and the
			// paper's stated rule): the packet survives only if no
			// visible co-SF co-channel transmission overlaps its
			// vulnerable window of ≈ T_i + T_j, i.e. per peer
			// probability (α_i + α_j)·vis_j, aggregated as
			// exp(-(α_i·Σvis + Σα_j·vis_j)).
			visEx, qEx := ex.visBase[k], ex.qBase[k]
			if ex.subOwn {
				visEx -= visI[k]
				qEx -= qI[k]
			}
			wSum += vis[k]
			wExposure += vis[k] * (alpha*visEx + qEx)
			pdr = pdr0[k]
			if e.interSFRej > 0 {
				// Imperfect-orthogonality extension: co-channel other-SF
				// power leaks into the SNR denominator, attenuated by
				// the rejection factor and scaled by the overlap
				// fraction.
				inter := ex.chSum[k] - ex.sumPG[k]
				if ex.pgAdj != nil {
					inter += ex.pgAdj[k]
				}
				snrFloor := math.Max(th*(e.noiseMW+e.interSFRej*h*inter), ss)
				pdr = math.Exp(-snrFloor / pa)
			}
		}
		theta := e.capDP[k].ProbAtMostExcluding(qI[k], e.p.GatewayCapacity-1)
		prodFail *= 1 - theta*pdr
	}
	prr := 1 - prodFail
	if e.mode == ModeExact && wSum > 0 {
		prr *= math.Exp(-wExposure / wSum)
	}
	if e.p.Objective == ObjectiveThroughput {
		// Future-work variant: delivered bits per second.
		return e.lbits * prr / e.p.IntervalFor(e.net, i, sf)
	}
	return e.lbits * prr / es
}

// eeOf computes device i's EE under the committed allocation.
//
//eflora:hotpath
func (e *Evaluator) eeOf(i int) float64 {
	gr := e.groupOf(e.sf[i], e.ch[i])
	ex := exposure{visBase: gr.visSum, qBase: gr.qSum, subOwn: true, chSum: e.chSum[e.ch[i]], sumPG: gr.sumPG}
	return e.eeAt(i, e.sf[i], e.tpMW[i], e.alpha[i], e.es[i], gr.count, e.vis[i], e.pdr0[i], &ex)
}

// membersMin folds into min the EE of gr's members other than skip, each
// under its committed assignment in a group of `total` devices with
// exposure ex, and returns early once min falls to threshold or below.
// Iterating the member set in map order is safe: without an early return
// the result is an order-independent minimum, and an early return is only
// compared against the threshold.
//
//eflora:hotpath
func (e *Evaluator) membersMin(gr *group, skip, total int, ex *exposure, min, threshold float64) float64 {
	//eflora:nondeterminism-ok order-independent min; early-abort returns are only compared against the threshold
	for j := range gr.members {
		if j == skip {
			continue
		}
		if v := e.eeAt(j, e.sf[j], e.tpMW[j], e.alpha[j], e.es[j], total, e.vis[j], e.pdr0[j], ex); v < min {
			min = v
			if min <= threshold {
				return min
			}
		}
	}
	return min
}

// RecomputeAll refreshes every cached quantity: the capacity
// distributions, every device's EE and every group's minimum. Call it at
// allocator pass boundaries to flush the second-order staleness that
// incremental updates leave in the capacity factor.
func (e *Evaluator) RecomputeAll() {
	e.rebuildCapacity()
	for si := range e.groups {
		for _, gr := range e.groups[si] {
			gr.minEE = math.Inf(1)
			gr.minIndex = -1
		}
	}
	for i := 0; i < e.n; i++ {
		e.ee[i] = e.eeOf(i)
		gr := e.groupOf(e.sf[i], e.ch[i])
		if e.ee[i] < gr.minEE {
			gr.minEE = e.ee[i]
			gr.minIndex = i
		}
	}
}

// refreshGroup recomputes EE for every member of the group and its min.
//
//eflora:hotpath
func (e *Evaluator) refreshGroup(gr *group) {
	gr.minEE = math.Inf(1)
	gr.minIndex = -1
	// Every member is visited exactly once and ties on minEE break toward
	// the lowest device index, so the outcome does not depend on Go's
	// randomized map order (RecomputeAll, which iterates devices in
	// ascending order, must agree with this on exact-EE ties).
	//eflora:nondeterminism-ok order-independent: all members updated; min tie-broken on device index
	for i := range gr.members {
		e.ee[i] = e.eeOf(i)
		if e.ee[i] < gr.minEE || (e.ee[i] == gr.minEE && i < gr.minIndex) {
			gr.minEE = e.ee[i]
			gr.minIndex = i
		}
	}
}

// EE returns the cached energy efficiency of device i in bits per joule.
func (e *Evaluator) EE(i int) float64 { return e.ee[i] }

// EEAll returns a copy of all cached per-device energy efficiencies.
func (e *Evaluator) EEAll() []float64 {
	out := make([]float64, e.n)
	copy(out, e.ee)
	return out
}

// MinEE returns the network's minimum energy efficiency and the device
// attaining it — the objective of the paper's Eq. 1.
func (e *Evaluator) MinEE() (float64, int) {
	min, idx := math.Inf(1), -1
	for si := range e.groups {
		for _, gr := range e.groups[si] {
			if gr.minEE < min {
				min, idx = gr.minEE, gr.minIndex
			}
		}
	}
	return min, idx
}

// Allocation returns a snapshot of the committed allocation.
func (e *Evaluator) Allocation() Allocation {
	a := Allocation{
		SF:      make([]lora.SF, e.n),
		TPdBm:   make([]float64, e.n),
		Channel: make([]int, e.n),
	}
	copy(a.SF, e.sf)
	copy(a.TPdBm, e.tpDBm)
	copy(a.Channel, e.ch)
	return a
}

// MinEEIf evaluates the network minimum EE if device i were reassigned to
// (sf, tpDBm, ch), without committing the change. The capacity factor θ is
// held at its committed value (a second-order effect refreshed by
// RecomputeAll at pass boundaries).
func (e *Evaluator) MinEEIf(i int, sf lora.SF, tpDBm float64, ch int) float64 {
	return e.MinEEIfAbove(i, sf, tpDBm, ch, math.Inf(-1))
}

// MinEEIfAbove is MinEEIf with an early-abort threshold: as soon as the
// running minimum falls to the threshold or below, it returns immediately
// with that value. The greedy allocator only cares whether a candidate
// beats the current best, so most candidates are rejected after O(1) or
// O(G) work instead of a full scan of the affected groups.
//
//eflora:hotpath
func (e *Evaluator) MinEEIfAbove(i int, sf lora.SF, tpDBm float64, ch int, threshold float64) float64 {
	e.scanDevice(i)
	e.scanPair(sf, tpDBm)
	return e.moveMinEE(ch, threshold)
}

// BestMove scans device i's candidate reassignments — every SF, each
// power of tpLevels at which the link closes (Feasible), every channel, in
// that nesting order — and returns the first candidate attaining the
// largest network minimum EE strictly above threshold, with that minimum.
// When no candidate beats threshold it returns threshold. skipCurrent
// leaves i's committed assignment out of the scan; tried counts the
// candidates scanned.
//
// Every candidate's minimum is bit-identical to MinEEIfAbove's against
// the running best, but what all channels of an (SF, TP) pair share — the
// candidate's energy per attempt, duty cycle, and per-gateway visibility
// and noise-floor PDR — is computed once per pair, and the minimum of the
// members i leaves behind once per scan.
//
//eflora:hotpath
func (e *Evaluator) BestMove(i int, tpLevels []float64, skipCurrent bool, threshold float64) (best Move, bestEE float64, tried int) {
	e.scanDevice(i)
	cur := Move{SF: e.sf[i], TPdBm: e.tpDBm[i], Channel: e.ch[i]}
	bestEE = threshold
	for sf := lora.MinSF; sf <= lora.MaxSF; sf++ {
		for _, tp := range tpLevels {
			if !Feasible(e.gain, i, sf, tp) {
				continue
			}
			e.scanPair(sf, tp)
			for ch := 0; ch < e.nch; ch++ {
				if skipCurrent && sf == cur.SF && tp == cur.TPdBm && ch == cur.Channel {
					continue
				}
				tried++
				if got := e.moveMinEE(ch, bestEE); got > bestEE {
					best, bestEE = Move{SF: sf, TPdBm: tp, Channel: ch}, got
				}
			}
		}
	}
	return best, bestEE, tried
}

// scanDevice starts a candidate scan of device i: the untouched-group
// minima and the exposure i leaves behind in its current group.
//
//eflora:hotpath
func (e *Evaluator) scanDevice(i int) {
	s := &e.scan
	s.i = i
	s.oldGr = e.groupOf(e.sf[i], e.ch[i])
	s.min1, s.min2, s.min1Gr = math.Inf(1), math.Inf(1), nil
	for si := range e.groups {
		for _, gr := range e.groups[si] {
			switch {
			case gr == s.oldGr:
			case gr.minEE < s.min1:
				s.min2 = s.min1
				s.min1, s.min1Gr = gr.minEE, gr
			case gr.minEE < s.min2:
				s.min2 = gr.minEE
			}
		}
	}
	for k := 0; k < e.g; k++ {
		s.leaveVis[k] = s.oldGr.visSum[k] - e.vis[i][k]
		s.leaveQ[k] = s.oldGr.qSum[k] - e.q[i][k]
		s.negPGOld[k] = -(e.tpMW[i] * e.gain[i][k])
	}
	s.leaveKnown = false
}

// scanPair sets the scanned (SF, TP) and hoists what all channels share:
// the device's duty cycle, energy per attempt and per-gateway footprint.
//
//eflora:hotpath
func (e *Evaluator) scanPair(sf lora.SF, tpDBm float64) {
	s := &e.scan
	toa := e.toaBySF[sfIndex(sf)]
	s.sf = sf
	s.alpha = math.Min(1, toa/e.p.IntervalFor(e.net, s.i, sf))
	s.tpmw = lora.DBmToMilliwatts(tpDBm)
	s.es = e.p.Profile.TransmissionEnergy(tpDBm, toa)
	e.footprint(s.i, sf, s.tpmw, s.alpha, s.vis, s.q, s.pdr0)
	if e.interSFRej > 0 {
		for k, gk := range e.gain[s.i] {
			s.pgNew[k] = s.tpmw * gk
		}
	}
}

// moveMinEE is the network minimum EE if the scanned device moved to
// channel ch under the scanned (SF, TP), with MinEEIfAbove's early abort.
// The bounds are folded cheapest first: untouched groups (O(1)), the
// device itself (O(G)), then the members of the groups it leaves and
// joins. The minimum of a set does not depend on that order, and an
// early return only has to be at or below the threshold.
//
//eflora:hotpath
func (e *Evaluator) moveMinEE(ch int, threshold float64) float64 {
	s := &e.scan
	i, oldGr := s.i, s.oldGr
	oldCh := e.ch[i]
	newGr := e.groups[sfIndex(s.sf)][ch]
	same := newGr == oldGr

	min := s.min1
	if newGr == s.min1Gr {
		min = s.min2
	}
	if min <= threshold {
		return min
	}

	// The device itself, excluding its own registered contribution from
	// the group's exposure sums. When it changes SF on the same channel,
	// its old power no longer counts as other-SF interference.
	newCount := newGr.count + 1
	if same {
		newCount = newGr.count
	}
	ex := exposure{visBase: newGr.visSum, qBase: newGr.qSum, subOwn: same, chSum: e.chSum[ch], sumPG: newGr.sumPG}
	if !same && oldCh == ch {
		ex.pgAdj = s.negPGOld
	}
	if v := e.eeAt(i, s.sf, s.tpmw, s.alpha, s.es, newCount, s.vis, s.pdr0, &ex); v < min {
		min = v
		if min <= threshold {
			return min
		}
	}

	if same {
		// Same group, possibly different TP: peers see i's exposure
		// change. chSum gains (new-old) and the group sum gains the same,
		// so the other-SF remainder is unchanged.
		for k := 0; k < e.g; k++ {
			s.joinVis[k] = newGr.visSum[k] - e.vis[i][k] + s.vis[k]
			s.joinQ[k] = newGr.qSum[k] - e.q[i][k] + s.q[k]
		}
		ex = exposure{visBase: s.joinVis, qBase: s.joinQ, subOwn: true, chSum: e.chSum[ch], sumPG: newGr.sumPG}
		return e.membersMin(newGr, i, newCount, &ex, min, threshold)
	}

	// Members of the old group (i leaves): count-1, exposure minus i's old
	// contribution. chSum[oldCh] loses i's old power and the group sum
	// loses it too, so the other-SF remainder keeps its value — except
	// that when i stays on the same channel with a new SF, its new power
	// arrives as other-SF interference.
	if !s.leaveKnown {
		ex = exposure{visBase: s.leaveVis, qBase: s.leaveQ, subOwn: true, chSum: e.chSum[oldCh], sumPG: oldGr.sumPG}
		if ch == oldCh {
			ex.pgAdj = s.pgNew
		}
		s.leaveKnown = e.interSFRej == 0
		abort := threshold
		if s.leaveKnown {
			abort = math.Inf(-1) // reused by later candidates: compute it exactly
		}
		s.leaveMin = e.membersMin(oldGr, i, oldGr.count-1, &ex, math.Inf(1), abort)
	}
	if s.leaveMin < min {
		min = s.leaveMin
		if min <= threshold {
			return min
		}
	}

	// Members of the new group (i joins). chSum[ch] gains i's new power
	// and the group sum gains it too, cancelling out — but when i left
	// the same channel (different SF), its old other-SF power disappears.
	for k := 0; k < e.g; k++ {
		s.joinVis[k] = newGr.visSum[k] + s.vis[k]
		s.joinQ[k] = newGr.qSum[k] + s.q[k]
	}
	ex = exposure{visBase: s.joinVis, qBase: s.joinQ, subOwn: true, chSum: e.chSum[ch], sumPG: newGr.sumPG}
	if oldCh == ch {
		ex.pgAdj = s.negPGOld
	}
	return e.membersMin(newGr, -1, newCount, &ex, min, threshold)
}

// SetDevice commits a reassignment of device i and refreshes the caches of
// the affected groups. It returns an error for invalid arguments.
//
//eflora:hotpath
func (e *Evaluator) SetDevice(i int, sf lora.SF, tpDBm float64, ch int) error {
	if i < 0 || i >= e.n {
		return fmt.Errorf("model: device index %d out of range", i)
	}
	if !sf.Valid() {
		return fmt.Errorf("model: invalid SF %d", int(sf))
	}
	if ch < 0 || ch >= e.nch {
		return fmt.Errorf("model: channel %d out of range", ch)
	}
	if tpDBm < e.p.Plan.MinTxPowerDBm-1e-9 || tpDBm > e.p.Plan.MaxTxPowerDBm+1e-9 {
		return fmt.Errorf("model: TP %v outside plan range", tpDBm)
	}
	oldGr := e.groupOf(e.sf[i], e.ch[i])
	newGr := e.groupOf(sf, ch)
	oldCh := e.ch[i]
	tpmw := lora.DBmToMilliwatts(tpDBm)

	// Remove i's old footprint.
	for k := 0; k < e.g; k++ {
		pg := e.tpMW[i] * e.gain[i][k]
		oldGr.sumPG[k] -= pg
		oldGr.visSum[k] -= e.vis[i][k]
		oldGr.qSum[k] -= e.q[i][k]
		e.chSum[oldCh][k] -= pg
		e.capDP[k].Remove(e.q[i][k])
	}
	oldGr.count--
	delete(oldGr.members, i)

	// Apply the new assignment.
	e.sf[i] = sf
	e.tpDBm[i] = tpDBm
	e.tpMW[i] = tpmw
	e.ch[i] = ch
	toa := e.toaBySF[sfIndex(sf)]
	interval := e.p.IntervalFor(e.net, i, sf)
	e.alpha[i] = math.Min(1, toa/interval)
	e.es[i] = e.p.Profile.TransmissionEnergy(tpDBm, toa)
	e.footprint(i, sf, tpmw, e.alpha[i], e.vis[i], e.q[i], e.pdr0[i])
	for k := 0; k < e.g; k++ {
		pg := tpmw * e.gain[i][k]
		newGr.sumPG[k] += pg
		newGr.visSum[k] += e.vis[i][k]
		newGr.qSum[k] += e.q[i][k]
		e.chSum[ch][k] += pg
		e.capDP[k].Add(e.q[i][k])
	}
	newGr.count++
	newGr.members[i] = struct{}{}

	e.refreshGroup(oldGr)
	if newGr != oldGr {
		e.refreshGroup(newGr)
	}
	return nil
}

// PRR returns the packet reception ratio implied by device i's cached
// metric: for the energy-efficiency objective PRR = EE · E_s / L
// (inverting Eq. 2); for the throughput objective PRR = T · T_g / L.
func (e *Evaluator) PRR(i int) float64 {
	if e.p.Objective == ObjectiveThroughput {
		interval := e.p.IntervalFor(e.net, i, e.sf[i])
		return e.ee[i] * interval / e.lbits
	}
	return e.ee[i] * e.es[i] / e.lbits
}
