package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/model"
	"eflora/internal/rng"
	"eflora/internal/sim"
)

// simulateWorkload runs one dense deployment with a Legacy allocation
// through the unconfirmed simulator and a second one through the
// confirmed-traffic simulator, both warm on their own sim.Scratch.
type simulateWorkload struct {
	sz                  sizes
	seed                uint64
	net, confNet        *core.Network
	a, confA            model.Allocation
	sc, confSc          sim.Scratch
	refDigest, refConfD string
}

func (w *simulateWorkload) setup(seed uint64) error {
	w.seed = seed
	var err error
	if w.net, err = (deploy{devices: w.sz.simDevices, gateways: w.sz.simGateways}).build(seed); err != nil {
		return err
	}
	if w.confNet, err = (deploy{devices: w.sz.confDevices, gateways: w.sz.simGateways}).build(seed + 1); err != nil {
		return err
	}
	if w.a, err = (alloc.Legacy{}).Allocate(w.net.Net, w.net.Params, rng.New(seed)); err != nil {
		return err
	}
	if w.confA, err = (alloc.Legacy{}).Allocate(w.confNet.Net, w.confNet.Params, rng.New(seed+1)); err != nil {
		return err
	}
	// The reference digests come from cold, sequential runs; every timed
	// run (warm scratch, default parallelism) must reproduce them.
	ref, err := sim.Run(w.net.Net, w.net.Params, w.a, w.simConfig(nil, 1))
	if err != nil {
		return err
	}
	w.refDigest = simDigest(ref)
	cref, err := sim.RunConfirmed(w.confNet.Net, w.confNet.Params, w.confA, w.confConfig(nil, 1))
	if err != nil {
		return err
	}
	w.refConfD = confirmedDigest(cref)
	// Warm both arenas to their high-water marks.
	if _, err := w.runSim(); err != nil {
		return err
	}
	_, err = w.runConfirmed()
	return err
}

// runSim and runConfirmed are the timed runs: program defaults on the
// workload's warm scratch arenas.
func (w *simulateWorkload) runSim() (*sim.Result, error) {
	return sim.Run(w.net.Net, w.net.Params, w.a, w.simConfig(&w.sc, 0))
}

func (w *simulateWorkload) runConfirmed() (*sim.ConfirmedResult, error) {
	return sim.RunConfirmed(w.confNet.Net, w.confNet.Params, w.confA, w.confConfig(&w.confSc, 0))
}

func (w *simulateWorkload) close() error { return nil }

func (w *simulateWorkload) simConfig(sc *sim.Scratch, parallelism int) sim.Config {
	return sim.Config{PacketsPerDevice: w.sz.simPackets, Seed: w.seed, Scratch: sc, Parallelism: parallelism}
}

func (w *simulateWorkload) confConfig(sc *sim.Scratch, parallelism int) sim.ConfirmedConfig {
	return sim.ConfirmedConfig{
		Config:         sim.Config{PacketsPerDevice: w.sz.confPackets, Seed: w.seed + 1, Scratch: sc, Parallelism: parallelism},
		HalfDuplexAcks: true,
	}
}

// digester hashes result fields exactly (floats by their bits).
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) ints(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.h.Write(b[:])
	}
}

func (d digester) floats(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func hashResult(d digester, r *sim.Result) {
	d.ints(r.Attempts...)
	d.ints(r.Delivered...)
	d.ints(r.CollisionLosses, r.CapacityDrops, r.SensitivityMisses)
	d.floats(r.SimTimeS)
	d.floats(r.TxEnergyJ...)
	d.floats(r.EE...)
}

// simDigest fingerprints an unconfirmed result.
func simDigest(r *sim.Result) string {
	d := newDigester()
	hashResult(d, r)
	return d.sum()
}

// confirmedDigest fingerprints a confirmed result.
func confirmedDigest(r *sim.ConfirmedResult) string {
	d := newDigester()
	hashResult(d, &r.Result)
	d.ints(r.Generated...)
	d.ints(r.Retransmissions, r.Abandoned, r.AckBlocked)
	return d.sum()
}

func total(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// checkSim is simulate's unconfirmed check: every device sent every
// packet and the run reproduces the reference digest.
func checkSim(r *sim.Result, devices, packets int, ref string) error {
	if got := total(r.Attempts); got != devices*packets {
		return fmt.Errorf("attempts %d != devices x packets %d", got, devices*packets)
	}
	if got := simDigest(r); got != ref {
		return fmt.Errorf("digest %s != reference %s", got, ref)
	}
	return nil
}

// checkConfirmed is simulate's confirmed check: every device generated
// every packet and the run reproduces the reference digest.
func checkConfirmed(r *sim.ConfirmedResult, devices, packets int, ref string) error {
	if got := total(r.Generated); got != devices*packets {
		return fmt.Errorf("generated %d != devices x packets %d", got, devices*packets)
	}
	if got := confirmedDigest(r); got != ref {
		return fmt.Errorf("digest %s != reference %s", got, ref)
	}
	return nil
}

func (w *simulateWorkload) measure(seconds float64, tr *trace) (*outcome, error) {
	rec := tr.recorder("main", 1024, 1)
	out := &outcome{layers: map[string]float64{}}
	var simWall, confWall, simCPU, confCPU, simRate, confRate, simHeap []float64
	var simTx, confTx, retx, delivered, pairs, sens, coll, capd int
	start := time.Now()
	for it := 0; it == 0 || time.Since(start).Seconds() < seconds; it++ {
		root := rec.begin(spSimIteration, uint32(it), -1)

		if err := out.peaksMB.start(); err != nil {
			return nil, err
		}
		h0 := heapAllocBytes(rec != nil)
		sp := rec.begin(spSim, uint32(it), root)
		t0, c0 := time.Now(), cpuTime()
		res, err := w.runSim()
		dt, dc := time.Since(t0).Seconds(), cpuTime()-c0
		rec.end(sp)
		simHeap = append(simHeap, float64(heapAllocBytes(rec != nil)-h0))
		if err != nil {
			return nil, err
		}
		if err := out.peaksMB.stop(); err != nil {
			return nil, err
		}
		out.attempted++
		if err := checkSim(res, w.sz.simDevices, w.sz.simPackets, w.refDigest); err != nil {
			out.fail("sim.Run: %v", err)
		}
		simWall = append(simWall, dt)
		simCPU = append(simCPU, dc)
		tx := total(res.Attempts)
		simRate = append(simRate, float64(tx)/dc)
		simTx += tx
		delivered += total(res.Delivered)
		pairs += tx * w.net.Net.G()
		sens, coll, capd = res.SensitivityMisses, res.CollisionLosses, res.CapacityDrops

		if err := out.peaksMB.start(); err != nil {
			return nil, err
		}
		sp = rec.begin(spConfirmed, uint32(it), root)
		t0, c0 = time.Now(), cpuTime()
		cres, err := w.runConfirmed()
		dt, dc = time.Since(t0).Seconds(), cpuTime()-c0
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return nil, err
		}
		if err := out.peaksMB.stop(); err != nil {
			return nil, err
		}
		out.attempted++
		if err := checkConfirmed(cres, w.sz.confDevices, w.sz.confPackets, w.refConfD); err != nil {
			out.fail("sim.RunConfirmed: %v", err)
		}
		confWall = append(confWall, dt)
		confCPU = append(confCPU, dc)
		confTx += total(cres.Attempts)
		confRate = append(confRate, float64(total(cres.Attempts))/dc)
		retx += cres.Retransmissions
	}
	runs := len(simWall)
	// Medians over runs: a run that a noisy neighbour slowed does not
	// move them.
	out.primary = median(simRate)
	out.secondary = median(confRate)
	out.workCPU = sum(simCPU) + sum(confCPU)
	out.named = []named{
		{"sim_tx_per_s", float64(simTx) / sum(simWall), "tx/s", runs},
		{"confirmed_tx_per_s", float64(confTx) / sum(confWall), "tx/s", runs},
		{"sim_tx_per_cpu_s", out.primary, "tx/cpu_s", runs},
		{"confirmed_tx_per_cpu_s", out.secondary, "tx/cpu_s", runs},
		{"sim_run_s", median(simWall), "s", runs},
		{"confirmed_run_s", median(confWall), "s", runs},
	}
	if tr != nil {
		tot := tr.totals()
		out.layers["sim.busy_s"] = float64(tot[spSim].ns) / 1e9 / float64(runs)
		out.layers["sim.ns_per_tx"] = float64(tot[spSim].ns) / float64(simTx)
		out.layers["sim.heap_mb_per_run"] = median(simHeap) / 1e6
		out.layers["engine.pairs"] = float64(pairs / runs)
		out.layers["engine.sensitivity_misses"] = float64(sens)
		out.layers["engine.collisions"] = float64(coll)
		out.layers["engine.capacity_drops"] = float64(capd)
		out.layers["engine.delivered_ratio"] = float64(delivered) / float64(simTx)
		out.layers["confirmed.busy_s"] = float64(tot[spConfirmed].ns) / 1e9 / float64(runs)
		out.layers["confirmed.ns_per_tx"] = float64(tot[spConfirmed].ns) / float64(confTx)
		out.layers["confirmed.retx_ratio"] = float64(retx) / float64(confTx)
		wall := float64(tot[spSimIteration].ns)
		out.residualFrac = (wall - float64(tot[spSim].ns+tot[spConfirmed].ns)) / wall
	}
	return out, nil
}
