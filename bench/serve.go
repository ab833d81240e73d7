package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"pacman"
	"pacman/client"
)

// rounds is how many independent rounds a forward measurement takes. Each
// round serves from its own freshly launched (or freshly recovered)
// instance, so the rounds are samples of one distribution and their median
// means something; on one long-lived instance the simulated devices keep
// the whole log in memory, the heap and the collector's mark phases grow
// with it, and consecutive seconds are not comparable.
const rounds = 10

// saturated is the share of the CPUs (or of a device's time) the peak
// segments must keep busy to count as measuring the program. The frozen
// windows reach 0.84 to 0.97, the rest being wake-up latency between
// generators and workers on two cores; the best window-bound point of the
// sweeps in README.md sits at 0.72.
const saturated = 0.80

// serving is one system under load: how to submit to it and the devices
// its instances log to.
type serving struct {
	mix        *mix
	submitters []func(o *op) future
	devices    []*pacman.Device
	// Where the layer counters of the round are read once it is over: the
	// instances, their Frontend when the load is submitted in process, the
	// connections when it arrives over the wire.
	dbs   []*pacman.DB
	fe    *pacman.Frontend
	conns []*client.Client
	// done tears the system down once its round is over and returns what
	// its own correctness check found.
	done func(peak, paced *phaseResult) error
}

// load is how a serving is driven: a closed-loop peak segment, then an
// open-loop paced segment at a fixed rate (none when the rate is zero).
type load struct {
	// window is the in-flight cap of one generator (per lane), frozen from
	// the sweeps in README.md.
	window int
	rate   float64
	seed   int64
	// seg is the length of one segment; each is preceded by a fifth of it
	// as warm-up.
	seg    time.Duration
	rounds int
	// toy marks the sub-second runs of the tests, whose segments are too
	// short for a CPU share to mean anything: the saturation guard is off.
	toy bool
}

// load sizes n rounds (fewer at test scale) that take share of the run
// length together.
func (rc *runCfg) load(frozenWindow int, rate float64, seed int64, share float64, n int) load {
	n = rc.times(n)
	return load{window: rc.window(frozenWindow), rate: rate, seed: seed, seg: rc.segment(share, n), rounds: n, toy: rc.seconds < 5}
}

// layerCounters are the counters the layers keep themselves, summed over
// the rounds as each round ends.
type layerCounters struct {
	shed                pacman.ShedStats
	reclaimed, maxChain int64
	syncEWMA            []float64 // us, one per device and round
	syncs               uint64
	retries, clientShed uint64
}

func (c *layerCounters) read(s *serving) {
	if s.fe != nil {
		st := s.fe.ShedStats()
		c.shed.Admission += st.Admission
		c.shed.Queue += st.Queue
		c.shed.Brownout += st.Brownout
	}
	for _, db := range s.dbs {
		mv := db.MVCCStats()
		c.reclaimed += mv.Reclaimed
		c.maxChain = max(c.maxChain, mv.MaxChain)
		for _, st := range db.SyncStats() {
			c.syncEWMA = append(c.syncEWMA, float64(st.EWMA)/1e3)
			c.syncs += st.Syncs
		}
	}
	for _, cl := range s.conns {
		st := cl.Stats()
		c.retries += st.Retries
		c.clientShed += st.Shed
	}
}

// served is what the rounds measured: one value per round for the
// end-to-end numbers, sums and merged samples for the rest.
type served struct {
	tps, p50, p99      []float64
	util, busy, mbps   []float64 // peak segment: CPU share, busiest device's busy share and MiB/s
	latePct            []float64 // paced segment: p99 generator lateness, us
	backlog            []int64   // paced segment: unresolved futures at its end
	peak, paced        totals
	cross              []float64 // paced: latency of cross-shard requests, ms
	single             [][]float64
	devBytes           int64
	peakAcked, mallocs float64 // over the peak segments proper
	wall               time.Duration
	layers             layerCounters
}

// totals sums a phase over the rounds.
type totals struct {
	submitted, acked, aborted, failed, crossAck int64
	submitNs                                    int64
	samples                                     []txnSample
}

func (t *totals) add(r *phaseResult) {
	t.submitted += r.submitted
	t.acked += r.acked
	t.aborted += r.aborted
	t.failed += r.failed
	t.crossAck += r.crossAck
	t.submitNs += r.submitNs
	t.samples = append(t.samples, r.samples...)
}

// deviceStats snapshots the modeled write-busy time and bytes written of
// every device.
func deviceStats(devs []*pacman.Device) (busy []time.Duration, bytes []int64) {
	for _, d := range devs {
		st := d.Stats()
		busy = append(busy, st.WriteBusy())
		bytes = append(bytes, st.BytesWritten)
	}
	return busy, bytes
}

// serveRounds runs ld.rounds rounds. open brings up the system of round i;
// the round's peak and paced segments both run on it. tr, when not nil,
// makes the generators stamp one transaction in sampleEvery and receives
// them as spans; submitLayer names the layer whose submit call they enter.
func serveRounds(rep *report, ld load, tr *tracer, submitLayer string, open func(round int) (*serving, error)) (*served, error) {
	out := &served{}
	warm := ld.seg / 5
	sample := 0
	if tr != nil {
		sample = sampleEvery
	}
	t0 := time.Now()
	for i := 0; i < ld.rounds; i++ {
		s, err := open(i)
		if err != nil {
			return nil, err
		}
		runtime.GC() // every round starts from a collected heap
		bytes0 := deviceBytes(s.devices)

		pcfg := phase{name: "peak", mix: s.mix, submitters: s.submitters, window: ld.window,
			warm: warm, seg: ld.seg, seed: ld.seed + int64(2*i), sample: sample}
		busy0, wr0 := deviceStats(s.devices)
		pk := runPhase(&pcfg)
		busy1, wr1 := deviceStats(s.devices)
		var busiest time.Duration
		var written int64
		for d := range busy0 {
			if b := busy1[d] - busy0[d]; b >= busiest {
				busiest, written = b, wr1[d]-wr0[d]
			}
		}
		// The device counters cover warm-up and drain too, so their shares
		// are taken over the phase's whole wall time.
		out.busy = append(out.busy, float64(busiest)/float64(pk.wall))
		out.mbps = append(out.mbps, float64(written)/(1<<20)/pk.wall.Seconds())
		out.util = append(out.util, float64(pk.cpu)/float64(ld.seg)/float64(nproc))
		out.tps = append(out.tps, float64(pk.windowAcks)/ld.seg.Seconds())
		out.peakAcked += float64(pk.windowAcks)
		out.mallocs += float64(pk.mallocs)
		out.peak.add(pk)

		pc := &phaseResult{name: "paced"}
		if ld.rate > 0 {
			// The paced segment starts from a collected heap too: at these
			// rates and segment lengths a collection cycle of the TPC-C mixes
			// falls into some segments and not others, and its mark phase,
			// not the commit pipeline, would then set that segment's tail.
			runtime.GC()
			ccfg := phase{name: "paced", mix: s.mix, submitters: s.submitters, window: ld.window,
				rate: ld.rate, warm: warm, seg: ld.seg, seed: ld.seed + int64(2*i+1), sample: sample}
			pc = runPhase(&ccfg)
			out.paced.add(pc)
			all := append(append([]float64(nil), pc.lat...), pc.latCross...)
			sort.Float64s(all)
			if len(all) > 0 {
				out.p50 = append(out.p50, percentile(all, 50))
				out.p99 = append(out.p99, percentile(all, 99))
			}
			out.cross = append(out.cross, pc.latCross...)
			out.single = append(out.single, pc.lat)
			sort.Float64s(pc.lateUs)
			out.latePct = append(out.latePct, percentile(pc.lateUs, 99))
			out.backlog = append(out.backlog, pc.unresolved)
		}
		out.devBytes += deviceBytes(s.devices) - bytes0

		for _, r := range []*phaseResult{pk, pc} {
			rep.ops(r.submitted, r.failed)
			for _, e := range r.errs {
				rep.info("round %d %s phase error: %s", i, r.name, e)
			}
			if tr != nil {
				tr.txnSpans(r, submitLayer)
			}
		}
		out.layers.read(s)
		if err := s.done(pk, pc); err != nil {
			return nil, err
		}
	}
	out.wall = time.Since(t0)
	return out, nil
}

// reportServe turns the rounds into the forward end-to-end metrics and
// applies the guards that keep them honest: the peak segments must
// saturate the program (or a device), and the paced ones must keep up.
func reportServe(rep *report, ld load, sv *served) {
	n := ld.rounds
	rep.set("tps", trimmedMean(sv.tps), fmt.Sprintf("closed loop, %d generators x %d in flight; mean of %d rounds x %v without the fastest and the slowest %s; %d acked, %d aborted",
		generators, ld.window, n, ld.seg, fmtList(sv.tps), sv.peak.acked, sv.peak.aborted))
	samples := sv.paced.acked + sv.paced.failed
	rep.set("durable_p50_ms", median(sv.p50), fmt.Sprintf("open loop at %.0f txn/s, from the scheduled send time; median of rounds %s; %d samples", ld.rate, fmtList(sv.p50), samples))
	rep.set("durable_p99_ms", median(sv.p99), fmt.Sprintf("median of rounds %s; %d samples beyond p99 per round", fmtList(sv.p99), samples/int64(n)/100))
	rep.check(len(sv.p50) == n, "paced phase: only %d of %d rounds saw a durable ack", len(sv.p50), n)

	// Saturation guard: a peak number taken while the program idles measures
	// the load generator's window, not the program.
	util, busy := median(sv.util), median(sv.busy)
	rep.info("peak_cpu_util %.3f (process CPU / wall / %d; rounds %s), busiest device %.3f busy", util, nproc, fmtList(sv.util), busy)
	rep.check(util >= saturated || busy >= saturated || ld.toy,
		"peak segments saturated neither the CPUs (%.2f) nor a device (%.2f): the number measures the generator", util, busy)

	// Pacing guard: the generator must hold its schedule and the system must
	// not fall behind it. More than half a second of unresolved requests at
	// the end of a paced segment is a backlog, and is lost work.
	rep.info("gen_late_p99_us per round %s; unresolved at the end of the paced segments %v", fmtList(sv.latePct), sv.backlog)
	for i, b := range sv.backlog {
		if float64(b) > ld.rate/2 {
			rep.ops(0, b)
			rep.check(false, "round %d: %d requests unresolved at the end of the paced segment; counted as failed", i, b)
		}
	}
}

// reportPerTxn reports what a served transaction costs in log bytes and in
// heap allocations.
func reportPerTxn(rep *report, sv *served) {
	if committed := sv.peak.acked + sv.paced.acked; committed > 0 {
		rep.set("log_bytes_per_txn", float64(sv.devBytes)/float64(committed),
			fmt.Sprintf("%d device bytes / %d committed", sv.devBytes, committed))
	}
	if sv.peakAcked > 0 {
		rep.set("allocs_per_txn", sv.mallocs/sv.peakAcked,
			fmt.Sprintf("%.0f process-wide mallocs / %.0f acked over the peak segments", sv.mallocs, sv.peakAcked))
	}
}
