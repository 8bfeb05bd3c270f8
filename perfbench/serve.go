package main

import (
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"eflora/internal/alloc"
	"eflora/internal/core"
	"eflora/internal/downlink"
	"eflora/internal/ingest"
	"eflora/internal/lora"
	"eflora/internal/lorawan"
	"eflora/internal/model"
	"eflora/internal/netserver"
	"eflora/internal/rng"
	"eflora/internal/scenario"
	"eflora/internal/statestore"
)

// Daemon defaults of cmd/eflora-nsd the serve pool mirrors.
const (
	serveQueueDepth = 1024
	serveRetainCap  = 4096
	// flushEvery is the datagram cadence of the periodic virtual-time
	// flush, as in eflora-nsd's -replay loop.
	flushEvery = 0x1000
	// spanWriteEvery samples the per-datagram and per-delivery spans
	// written to the spans file (millions per traced run).
	spanWriteEvery = 64
)

// passKinds are the passes of one serve iteration: three unpaced, then
// one paced (true).
var passKinds = []bool{false, false, false, true}

// serveWorkload replays a synthesized gateway trace through the serving
// path of cmd/eflora-nsd: decode, RF accounting, downlink context,
// sharded dedup and tracking, with a control goroutine that
// re-allocates drifting devices, logs each delta to the WAL and queues
// LinkADRReq downlinks. Datagrams are handed over as byte slices; no
// socket is crossed.
type serveWorkload struct {
	sz   sizes
	rate float64 // offered datagrams per second in the paced phase
	dir  string  // parent of the per-pass state directories

	seed  uint64
	net   *core.Network
	a     model.Allocation
	rp    *ingest.Replay
	grams [][]byte  // one PUSH_DATA datagram per replayed uplink
	dueS  []float64 // trace time each datagram arrives at (non-decreasing)

	prepared []*servePass
}

// gatewayEUI is the EUI the replayed gateway gw reports under.
func gatewayEUI(gw int) [8]byte {
	return [8]byte{0xEF, 0x10, 0x5A, 0, 0, 0, byte(gw >> 8), byte(gw)}
}

func (w *serveWorkload) setup(seed uint64) error {
	if w.rate <= 0 {
		return errors.New("serve needs a positive --serve-rate")
	}
	w.seed = seed
	var err error
	if w.net, err = (deploy{devices: w.sz.serveDevices, gateways: w.sz.serveGateways}).build(seed); err != nil {
		return err
	}
	p := w.net.Params
	if w.a, err = (alloc.Legacy{}).Allocate(w.net.Net, p, rng.New(seed)); err != nil {
		return err
	}
	w.rp, err = ingest.BuildReplay(w.net.Net, p, w.a, ingest.ReplayConfig{
		Packets:      w.sz.servePackets,
		Seed:         seed,
		DriftDevices: w.sz.serveDrift,
		DriftSNRdB:   w.sz.serveDriftSNRdB,
	})
	if err != nil {
		return err
	}
	// Each uplink becomes one PUSH_DATA datagram from its gateway with
	// the device's allocated SF, channel and frequency, so the receiver
	// frontend does real RF accounting. tmst carries the replay's
	// timestamp in microseconds.
	codr := fmt.Sprintf("4/%d", int(p.CodingRate))
	w.grams = make([][]byte, len(w.rp.Uplinks))
	w.dueS = make([]float64, len(w.rp.Uplinks))
	rx := make([]ingest.RXPK, 1)
	due := 0.0
	for i, up := range w.rp.Uplinks {
		dev, ok := devIndex(up.PHYPayload)
		if !ok || dev >= w.net.Net.N() {
			return fmt.Errorf("replay uplink %d has no known DevAddr", i)
		}
		ch := p.Plan.Uplink[w.a.Channel[dev]]
		rx[0] = ingest.RXPK{
			Tmst: uint64(up.ReceivedAtS*1e6 + 0.5),
			Freq: ch.CenterHz / 1e6,
			Chan: w.a.Channel[dev],
			Stat: 1,
			Modu: "LORA",
			Datr: ingest.Datr(w.a.SF[dev], ch.BandwidthHz),
			Codr: codr,
			RSSI: up.RSSIdBm,
			LSNR: up.SNRdB,
			Size: len(up.PHYPayload),
			Data: base64.StdEncoding.EncodeToString(up.PHYPayload),
		}
		if w.grams[i], err = ingest.EncodePushData(uint16(i), gatewayEUI(up.Gateway), rx); err != nil {
			return err
		}
		// The trace is in arrival order; an out-of-order copy carries a
		// timestamp before its predecessor's, so it is due with it.
		if up.ReceivedAtS > due {
			due = up.ReceivedAtS
		}
		w.dueS[i] = due
	}
	// The passes of the first measurement are prepared here, so their
	// cost lands in setup_s.
	for range passKinds {
		ps, err := w.newPass()
		if err != nil {
			return err
		}
		w.prepared = append(w.prepared, ps)
	}
	return nil
}

// devIndex reads the device index from a PHY payload's DevAddr.
func devIndex(phy []byte) (int, bool) {
	if len(phy) < lorawan.FrameOverheadBytes {
		return 0, false
	}
	return ingest.IndexForAddr(uint32(phy[1]) | uint32(phy[2])<<8 | uint32(phy[3])<<16 | uint32(phy[4])<<24)
}

// servePass is the server state one replay pass runs against.
type servePass struct {
	pool     *ingest.Pool
	tracker  *ingest.Tracker
	frontend *ingest.Frontend
	sched    *downlink.Scheduler
	realloc  *ingest.Reallocator
	store    *statestore.Store
	dir      string
	// shardRecs, when set before the pool starts, time Tracker.Observe
	// on each shard worker.
	shardRecs []*recorder
}

func (w *serveWorkload) newPass() (*servePass, error) {
	p := w.net.Params
	ps := &servePass{
		tracker: ingest.NewTracker(0),
		frontend: ingest.NewFrontend(ingest.FrontendConfig{
			Plan:       p.Plan,
			NoiseDBm:   p.NoiseDBm,
			Capacity:   p.GatewayCapacity,
			CodingRate: p.CodingRate,
		}),
		sched: downlink.NewScheduler(downlink.Config{CodingRate: p.CodingRate}),
	}
	ps.pool = ingest.NewPool(w.rp.Devices, ingest.PoolConfig{
		Shards:       serveShards(),
		QueueDepth:   serveQueueDepth,
		DedupWindowS: w.rp.DedupWindowS,
		RetainCap:    serveRetainCap,
		OnDelivery: func(k int, del netserver.Delivery) {
			if ps.shardRecs == nil {
				ps.tracker.Observe(del)
				return
			}
			r := ps.shardRecs[k]
			sp := r.begin(spTracker, del.DevAddr, -1)
			ps.tracker.Observe(del)
			r.end(sp)
		},
	})
	inc, err := alloc.NewIncremental(w.net.Net, p, w.a, alloc.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := inc.MinEE(); err != nil { // builds the warm evaluator
		return nil, err
	}
	ps.realloc = ingest.NewReallocator(inc, ps.tracker, ingest.ReallocConfig{})
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, err
	}
	if ps.dir, err = os.MkdirTemp(w.dir, "pass-"); err != nil {
		return nil, err
	}
	if ps.store, err = statestore.Open(ps.dir, statestore.Options{}); err != nil {
		return nil, err
	}
	return ps, nil
}

// close releases the prepared passes no measurement used.
func (w *serveWorkload) close() error {
	for _, ps := range w.prepared {
		_ = ps.store.Close() // unused and empty; its directory goes next
		if err := os.RemoveAll(ps.dir); err != nil {
			return err
		}
	}
	w.prepared = nil
	return nil
}

// passResult is what one replay pass measured.
type passResult struct {
	wallS        float64
	cpuS         float64   // process CPU time of the pass, control steps excluded
	latS         []float64 // paced: due time to last Dispatch return
	lateS        []float64 // paced: how late the reader started each datagram
	busyS        float64   // paced: time the reader spent handling datagrams
	ctl          controlResult
	decodeErrors int
	depthMax     int
	counters     netserver.Counters
	rf           ingest.FrontendCounters
	dl           downlink.Counters
	walBytes     uint64
	checkErr     error
}

// controlResult is the control goroutine's account of a pass.
type controlResult struct {
	stepS      []float64 // wall time per step
	stepCPU    []float64 // CPU time per step (control thread)
	moved      int
	reassessed int // devices handed to ReassignDevice
	appended   []scenario.Delta
	err        error
}

// control runs one control step per trace time received on steps:
// Reallocator.Step, then the WAL append (fsync'd) before any downlink
// is queued, then one LinkADRReq per moved device.
func (w *serveWorkload) control(ps *servePass, steps <-chan float64, rec *recorder) controlResult {
	// The step's CPU time is read per thread, so the goroutine keeps one.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var out controlResult
	fcnt := map[uint32]uint32{}
	id := uint32(0)
	for nowS := range steps {
		if out.err != nil {
			continue // keep draining so the reader never blocks
		}
		t0, c0 := time.Now(), threadCPUTime()
		root := rec.begin(spControl, id, -1)
		sp := rec.begin(spRealloc, id, root)
		delta, err := ps.realloc.Step(nowS)
		rec.end(sp)
		if err == nil && delta != nil {
			sp = rec.begin(spAppendSync, id, root)
			_, err = ps.store.AppendSync(delta, nowS)
			rec.end(sp)
			if err == nil {
				out.appended = append(out.appended, *delta)
				out.moved += len(delta.Changes)
				out.reassessed += len(delta.Changes) + len(delta.Resets)
				sp = rec.begin(spEnqueue, id, root)
				err = w.queueDownlinks(ps, delta, fcnt, nowS)
				rec.end(sp)
			}
		}
		rec.end(root)
		out.stepS = append(out.stepS, time.Since(t0).Seconds())
		out.stepCPU = append(out.stepCPU, threadCPUTime()-c0)
		out.err = err
		id++
	}
	return out
}

// queueDownlinks encodes one LinkADRReq per change and hands it to the
// downlink scheduler, as eflora-nsd's queueDownlinks does.
func (w *serveWorkload) queueDownlinks(ps *servePass, delta *scenario.Delta, fcnt map[uint32]uint32, nowS float64) error {
	plan := w.net.Params.Plan
	for _, c := range delta.Changes {
		dev := w.rp.Devices[c.Device]
		dr, err := lorawan.DataRateForSF(lora.SF(c.SF))
		if err != nil {
			return err
		}
		tpIdx, ok := plan.TxPowerIndex(c.TPdBm)
		if !ok {
			return fmt.Errorf("TX power %g dBm is not a level of plan %s", c.TPdBm, plan.Name)
		}
		cmd, err := lorawan.LinkADRReq{DataRate: dr, TXPower: uint8(tpIdx), Channel: c.Channel}.Encode()
		if err != nil {
			return err
		}
		phy, err := lorawan.EncodeDownlink(lorawan.Frame{
			MType:   lorawan.UnconfirmedDataDown,
			DevAddr: dev.DevAddr,
			ADR:     true,
			FCnt:    fcnt[dev.DevAddr],
			FPort:   0,
			Payload: cmd,
		}, dev.Keys)
		if err != nil {
			return err
		}
		fcnt[dev.DevAddr]++
		ps.realloc.NoteCommandSent(dev.DevAddr)
		ps.sched.Enqueue(dev.DevAddr, phy, nowS)
	}
	return nil
}

// checkServe is serve's correctness check: the pool's counters equal the
// replay's analytically known accounting, every moved device got exactly
// one queued downlink, and recovering the WAL returns exactly the deltas
// that were appended.
func checkServe(got, want netserver.Counters, queued, moved int, recovered, appended []scenario.Delta) error {
	if got != want {
		return fmt.Errorf("pool counters %+v != replay expectation %+v", got, want)
	}
	if queued != moved {
		return fmt.Errorf("%d downlinks queued for %d moved devices", queued, moved)
	}
	if len(recovered) != len(appended) {
		return fmt.Errorf("recovered %d WAL deltas, appended %d", len(recovered), len(appended))
	}
	for i := range appended {
		if !reflect.DeepEqual(recovered[i], appended[i]) {
			return fmt.Errorf("recovered WAL delta %d = %+v, appended %+v", i, recovered[i], appended[i])
		}
	}
	return nil
}

// runPass replays every datagram once, in eflora-nsd udpLoop's call
// order. paced replays the trace's arrival times scaled to w.rate
// datagrams per second; otherwise the reader runs flat out and the
// bounded shard inboxes set the rate.
func (w *serveWorkload) runPass(ps *servePass, paced bool, tr *trace) (*passResult, error) {
	// Each datagram records a root span and six calls at most; each
	// delivery one tracker span. The spans file keeps one datagram and
	// one device in spanWriteEvery.
	rec := tr.recorder("reader", 7*len(w.grams), spanWriteEvery)
	if tr != nil {
		ps.shardRecs = make([]*recorder, serveShards())
		for k := range ps.shardRecs {
			ps.shardRecs[k] = tr.recorder(fmt.Sprintf("shard%d", k), 2*w.rp.Expected.Delivered/len(ps.shardRecs), spanWriteEvery)
		}
	}
	ctlRec := tr.recorder("control", 64*w.sz.controlSteps, 1)
	ps.pool.Start()

	steps := make(chan float64, 1) // one pending step; later ones coalesce while it runs
	ctlDone := make(chan controlResult, 1)
	go func() { ctlDone <- w.control(ps, steps, ctlRec) }()

	n := len(w.grams)
	first, last := w.dueS[0], w.dueS[n-1]
	cadence := (last - first) / float64(w.sz.controlSteps)
	nextStep := first + cadence
	scale := 0.0 // wall seconds per trace second
	if paced && last > first {
		scale = float64(n) / w.rate / (last - first)
	}

	out := &passResult{}
	if paced {
		out.latS = make([]float64, 0, n)
		out.lateS = make([]float64, 0, n)
	}
	gwIdx := map[[8]byte]int{}
	var psc ingest.ParseScratch
	t0, c0 := time.Now(), cpuTime()
	for i, g := range w.grams {
		var due time.Time
		if paced {
			due = t0.Add(time.Duration((w.dueS[i] - first) * scale * 1e9))
			waitUntil(due)
		}
		start := time.Now()
		id := uint32(i)
		root := rec.begin(spDatagram, id, -1)

		sp := rec.begin(spDecode, id, root)
		pkt, err := ingest.DecodePacketInto(g, &psc)
		rec.end(sp)
		if err != nil || pkt.Kind != ingest.PushData {
			out.decodeErrors++
			rec.end(root)
			continue
		}
		gw, ok := gwIdx[pkt.EUI]
		if !ok {
			gw = len(gwIdx)
			gwIdx[pkt.EUI] = gw
		}
		now := w.dueS[i] // the server clock, in trace time
		for j := range pkt.RXPK {
			rx := &pkt.RXPK[j]
			if rx.Modu != "" && rx.Modu != "LORA" {
				continue
			}
			sp = rec.begin(spObserve, id, root)
			ps.frontend.Observe(gw, rx, now)
			rec.end(sp)
			if rx.Stat < 0 {
				continue
			}
			sp = rec.begin(spPayload, id, root)
			phy, err := rx.Payload()
			rec.end(sp)
			if err != nil {
				out.decodeErrors++
				continue
			}
			if len(phy) >= lorawan.FrameOverheadBytes {
				devAddr := uint32(phy[1]) | uint32(phy[2])<<8 | uint32(phy[3])<<16 | uint32(phy[4])<<24
				sp = rec.begin(spDownlinkObserve, id, root)
				ps.sched.ObserveUplink(downlink.Uplink{
					DevAddr: devAddr,
					Gateway: gw,
					EUI:     pkt.EUI,
					Tmst:    rx.Tmst,
					FreqMHz: rx.Freq,
					Datr:    rx.Datr,
					AtS:     now,
				}, now)
				rec.end(sp)
			}
			sp = rec.begin(spDispatch, id, root)
			ps.pool.Dispatch(netserver.Uplink{
				Gateway: gw,
				// The replay's own timestamp (from tmst), so out-of-order
				// copies keep the order the expected accounting assumes.
				ReceivedAtS: float64(rx.Tmst) / 1e6,
				RSSIdBm:     rx.RSSI,
				SNRdB:       rx.LSNR,
				PHYPayload:  phy,
			})
			rec.end(sp)
		}
		if i%flushEvery == flushEvery-1 {
			sp = rec.begin(spFlush, id, root)
			ps.pool.FlushExpiredVirtual()
			ps.frontend.Advance(now)
			ps.sched.Expire(now)
			rec.end(sp)
			for _, d := range ps.pool.ShardDepths() {
				out.depthMax = max(out.depthMax, d)
			}
		}
		rec.end(root)
		if paced {
			done := time.Now()
			out.latS = append(out.latS, done.Sub(due).Seconds())
			out.lateS = append(out.lateS, start.Sub(due).Seconds())
			out.busyS += done.Sub(start).Seconds()
		}
		if now >= nextStep {
			select {
			case steps <- now:
			default:
			}
			nextStep += cadence
		}
	}
	close(steps)
	ctl := <-ctlDone
	ps.pool.Drain()
	ps.pool.Flush()
	out.wallS, out.cpuS = time.Since(t0).Seconds(), cpuTime()-c0
	ps.pool.Close()
	if ctl.err != nil {
		return nil, fmt.Errorf("control step: %w", ctl.err)
	}
	// The control loop's CPU is its own metric; how much of it falls in
	// one pass depends on which devices drift.
	out.cpuS -= sum(ctl.stepCPU)
	out.ctl = ctl
	out.counters = ps.pool.Counters()
	out.rf = ps.frontend.Counters()
	out.dl = ps.sched.Counters()
	out.walBytes = ps.store.Metrics().WALBytes

	if err := ps.store.Close(); err != nil {
		return nil, err
	}
	recovered, err := recoverDeltas(ps.dir)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(ps.dir); err != nil {
		return nil, err
	}
	out.checkErr = checkServe(out.counters, w.rp.Expected, out.dl.Queued, ctl.moved, recovered, ctl.appended)
	return out, nil
}

// recoverDeltas reopens a state directory and returns the deltas its
// WAL recovers.
func recoverDeltas(dir string) ([]scenario.Delta, error) {
	st, err := statestore.Open(dir, statestore.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	r, err := st.Recover()
	if err != nil {
		return nil, err
	}
	out := make([]scenario.Delta, len(r.Tail))
	for i, rec := range r.Tail {
		out[i] = rec.Delta
	}
	return out, nil
}

// pass returns a prepared pass, or prepares one.
func (w *serveWorkload) pass() (*servePass, error) {
	if len(w.prepared) > 0 {
		ps := w.prepared[0]
		w.prepared = w.prepared[1:]
		return ps, nil
	}
	return w.newPass()
}

func (w *serveWorkload) measure(seconds float64, tr *trace) (*outcome, error) {
	out := &outcome{layers: map[string]float64{}}
	if tr != nil {
		out.layers["ingest.decode_heap_bytes"] = w.decodeHeapBytes()
	}
	var unpaced, paced []*passResult
	// The reader's spans of the first iteration's unpaced passes, for the
	// residual.
	var unpacedSpans [numSpanNames]spanStats
	unpacedWall := 0.0
	start := time.Now()
	for it := 0; it == 0 || time.Since(start).Seconds() < seconds; it++ {
		for _, isPaced := range passKinds {
			ps, err := w.pass()
			if err != nil {
				return nil, err
			}
			if err := out.peaksMB.start(); err != nil {
				return nil, err
			}
			r, err := w.runPass(ps, isPaced, tr)
			if err != nil {
				return nil, err
			}
			if err := out.peaksMB.stop(); err != nil {
				return nil, err
			}
			out.attempted += len(w.grams) + 1
			if r.decodeErrors > 0 {
				out.fail("serve pass (paced=%v): %d datagrams failed to decode", isPaced, r.decodeErrors)
				out.failed += r.decodeErrors - 1
			}
			if r.checkErr != nil {
				out.fail("serve pass (paced=%v): %v", isPaced, r.checkErr)
			}
			if isPaced {
				paced = append(paced, r)
			} else {
				unpaced = append(unpaced, r)
				if it == 0 {
					unpacedSpans = tr.totals()
					unpacedWall += r.wallS
				}
			}
		}
	}

	var lat, late, steps, stepsCPU, unpacedRate []float64
	var uplinkS, uplinkCPU, pacedWall, pacedBusy, pacedCPU float64
	moved, reassessed, uplinks, pacedUplinks := 0, 0, 0, 0
	for _, r := range unpaced {
		uplinkS += r.wallS
		uplinkCPU += r.cpuS
		uplinks += r.counters.Uplinks
		unpacedRate = append(unpacedRate, float64(r.counters.Uplinks)/r.cpuS)
	}
	for _, r := range append(append([]*passResult(nil), unpaced...), paced...) {
		steps = append(steps, r.ctl.stepS...)
		stepsCPU = append(stepsCPU, r.ctl.stepCPU...)
		moved += r.ctl.moved
		reassessed += r.ctl.reassessed
	}
	for _, r := range paced {
		lat = append(lat, r.latS...)
		late = append(late, r.lateS...)
		pacedWall += r.wallS
		pacedBusy += r.busyS
		pacedCPU += r.cpuS
		pacedUplinks += r.counters.Uplinks
	}
	stepMed := median(steps)
	// The median pass: one that a noisy neighbour slowed does not move it.
	out.primary = median(unpacedRate)
	out.secondary = float64(pacedUplinks) / pacedCPU
	out.workCPU = uplinkCPU
	out.named = []named{
		{"uplinks_per_s", float64(uplinks) / uplinkS, "uplinks/s", len(unpaced)},
		{"uplinks_per_cpu_s", out.primary, "uplinks/cpu_s", len(unpaced)},
		{"control_step_cpu_ms", median(stepsCPU) * 1e3, "ms", len(stepsCPU)},
		{"paced_uplinks_per_cpu_s", out.secondary, "uplinks/cpu_s", len(paced)},
		{"reassessed_per_cpu_s", float64(reassessed) / sum(stepsCPU), "1/cpu_s", reassessed},
		{"ingest_p50_us", quantile(lat, 0.5) * 1e6, "us", len(lat)},
		{"ingest_p99_us", quantile(lat, 0.99) * 1e6, "us", len(lat)},
		{"control_step_ms", stepMed * 1e3, "ms", len(steps)},
		{"offered_rate_per_s", w.rate, "1/s", len(paced)},
		{"generator_late_p50_us", quantile(late, 0.5) * 1e6, "us", len(late)},
	}
	if tr != nil {
		u, p := unpaced[0], paced[0]
		tot := tr.totals()
		perCall := func(name uint8) float64 {
			if tot[name].count == 0 {
				return 0
			}
			return float64(tot[name].ns) / float64(tot[name].count)
		}
		L := out.layers
		L["ingest.decode_ns"] = perCall(spDecode)
		L["ingest.decode_errors"] = float64(u.decodeErrors + p.decodeErrors)
		L["engine.observe_ns"] = perCall(spObserve)
		L["engine.rf_collisions"] = float64(u.rf.CollisionLosses)
		L["engine.rf_capacity_drops"] = float64(u.rf.CapacityDrops)
		L["downlink.observe_ns"] = perCall(spDownlinkObserve)
		L["netserver.dispatch_wait_ns"] = perCall(spDispatch)
		L["netserver.queue_depth_max"] = float64(max(u.depthMax, p.depthMax))
		L["netserver.flush_ns"] = perCall(spFlush)
		L["serve.reader_busy_frac"] = pacedBusy / pacedWall
		L["serve.ingest_p50_us"] = quantile(lat, 0.5) * 1e6
		L["serve.ingest_p99_us"] = quantile(lat, 0.99) * 1e6
		L["serve.generator_late_ms"] = quantile(late, 0.5) * 1e3
		L["serve.control_step_ms"] = stepMed * 1e3
		L["ingest.tracker_ns"] = perCall(spTracker)
		L["netserver.duplicate_ratio"] = float64(u.counters.Duplicates) / float64(u.counters.Uplinks)
		L["netserver.delivered"] = float64(u.counters.Delivered)
		L["netserver.rejected"] = float64(u.counters.Rejected)
		L["ingest.realloc_step_ms"] = perCall(spRealloc) / 1e6
		L["ingest.moved_per_step"] = float64(moved) / float64(len(steps))
		L["statestore.append_sync_ms"] = perCall(spAppendSync) / 1e6
		L["statestore.wal_bytes"] = float64(u.walBytes)
		L["downlink.enqueue_ns"] = float64(tot[spEnqueue].ns) / float64(max(moved, 1))
		L["downlink.frames"] = float64(u.dl.Sent)
		readerNs := int64(0)
		for _, name := range []uint8{spDecode, spObserve, spPayload, spDownlinkObserve, spDispatch, spFlush} {
			readerNs += unpacedSpans[name].ns
		}
		out.residualFrac = (unpacedWall - float64(readerNs)/1e9) / unpacedWall
	}
	return out, nil
}

// decodeHeapBytes is the heap allocated per datagram by a warm
// DecodePacketInto, measured on a sweep with nothing else running.
func (w *serveWorkload) decodeHeapBytes() float64 {
	var psc ingest.ParseScratch
	for _, g := range w.grams {
		_, _ = ingest.DecodePacketInto(g, &psc) // warm-up; errors are counted in the passes
	}
	h0 := heapAllocBytes(true)
	for _, g := range w.grams {
		_, _ = ingest.DecodePacketInto(g, &psc)
	}
	return float64(heapAllocBytes(true)-h0) / float64(len(w.grams))
}

// waitUntil sleeps until t. The runtime's timers wake the reader up to
// about a millisecond late; that lateness is reported as the generator's,
// and since latency is timed from t it is charged to every datagram that
// fell due in the meantime. The reader never spins, so the paced pass's
// CPU time is the server's alone.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
