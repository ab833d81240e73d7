package torture

import (
	"errors"
	"fmt"
	"time"

	"pacman"
	"pacman/client"
	"pacman/internal/proc"
	"pacman/internal/shard"
)

// The durability/atomicity oracle.
//
// Every transaction the torture driver submits is journaled by how its
// durable-commit Future resolved:
//
//   - acked: resolved nil — the system PROMISED durability. Its effects must
//     be present after every later recovery, exactly once.
//   - maybe: resolved ErrCrashed/ErrClosed/ErrConnLost/ErrDeadlineExceeded
//     — executed, but the crash, the lost connection or the deadline beat
//     the acknowledgment. Atomicity still binds it: its effects must be
//     fully present or fully absent, never partial, and whichever way the
//     first post-crash recovery lands must stay that way forever (a dropped
//     ghost must never resurrect).
//   - none: rejected before execution (closed frontend or client, brownout
//     shed) or rolled back (explicit abort) — no effects, ever.
//
// Two read-back checks enforce this against the recovered state:
//
//  1. Balance conservation (Smallbank): every generated amount is an
//     integer-valued float, so expected totals are exact. Acked txns
//     contribute a known delta interval ([lo,hi] differs only for
//     WriteCheck, whose overdraft penalty depends on state); maybe txns
//     widen the interval by min(lo,0)/max(hi,0). The recovered
//     SAVINGS+CHECKING total must land inside the interval.
//  2. Ledger stamps (all workloads): TortureStamp writes the SAME value to
//     both rows of a never-reused ledger pair in one transaction. Acked →
//     both rows carry the value. Maybe → both carry it or both still carry
//     the pair's previous persisted value. One of each is a torn (partial)
//     transaction — the atomicity violation recovery must never produce.
//
// Plus the structural invariants of recovery.Result: the recovered pepoch
// covers every acked epoch, the resume epoch clears the recovered
// high-water mark, checkpoint ids never regress, and the replayed entry
// count accounts for every acked logging transaction (log batches are
// never truncated in these runs).

// stampStatus is what the oracle holds a ledger pair to.
type stampStatus string

const (
	stampUnused stampStatus = ""
	stampAcked  stampStatus = "acked" // durability promised: value must read back
	stampMaybe  stampStatus = "maybe" // crash beat the ack: all-or-nothing, then frozen
)

type stampState struct {
	val    int64
	known  int64 // last persisted value the pair is known to hold
	status stampStatus
}

// journal accumulates one client's outcomes for one cycle; clients write
// their own journal race-free and the driver merges them after the crash.
type journal struct {
	ackLo, ackHi     int64
	maybeLo, maybeHi int64
	maxAckedEpoch    uint32
	acked            int64
	ackedLogged      int64
	maybes           int64
	rejected         int64
	aborted          int64
	deadline         int64 // maybes that were ErrDeadlineExceeded
	shed             int64 // rejections that were brownout sheds
	stampsAcked      []stampRec
	stampsMaybe      []stampRec
	violations       []string
}

// ack records a transaction the system promised durable at commit
// timestamp ts.
func (j *journal) ack(p pending, ts pacman.TS) {
	j.acked++
	j.ackLo += p.lo
	j.ackHi += p.hi
	if p.logged {
		j.ackedLogged++
		// Only write-bearing acks constrain the recovered pepoch: a
		// read-only or zero-write commit resolves durable without needing
		// log coverage of its epoch.
		j.maxAckedEpoch = max(j.maxAckedEpoch, uint32(ts>>32))
	}
	if p.stamp >= 0 {
		j.stampsAcked = append(j.stampsAcked, stampRec{pair: p.stamp, val: p.stampVal})
	}
}

// maybe records an outcome the caller lost but the system may still
// complete: its effects maybe applied, so the bounds widen.
func (j *journal) maybe(p pending) {
	j.maybes++
	if p.lo < 0 {
		j.maybeLo += p.lo
	}
	if p.hi > 0 {
		j.maybeHi += p.hi
	}
	if p.stamp >= 0 {
		j.stampsMaybe = append(j.stampsMaybe, stampRec{pair: p.stamp, val: p.stampVal})
	}
}

// livenessGrace is how far past its deadline a future may stay unresolved
// before the liveness oracle calls it a hang. Expiry is a per-future timer,
// so the nominal overshoot is timer slack plus one scheduling quantum; the
// grace adds generous headroom for the race detector and loaded CI.
const livenessGrace = time.Second

// settle waits for one submission and classifies its outcome. It enforces
// the liveness contract first: a deadline-carrying future still unresolved
// livenessGrace past its deadline has broken the fail-fast promise. An
// error the classifier does not know is a violation unless opaque holds it
// to the maybe contract (see clusterTarget).
func (j *journal) settle(p pending, opaque bool) {
	if f, ok := p.fut.(*pacman.Future); ok && !f.Deadline().IsZero() {
		select {
		case <-f.Done():
		case <-time.After(time.Until(f.Deadline().Add(livenessGrace))):
			select {
			case <-f.Done(): // resolved on the race — fine
			default:
				j.violations = append(j.violations, fmt.Sprintf(
					"liveness: future still unresolved %v past its deadline", livenessGrace))
				// Abandon rather than deadlock the harness; account as a
				// maybe so the durability oracle stays sound.
				j.maybe(p)
				return
			}
		}
	}
	ts, err := p.fut.Wait()
	switch {
	case err == nil:
		j.ack(p, ts)
	case errors.Is(err, pacman.ErrCrashed), errors.Is(err, pacman.ErrClosed), errors.Is(err, client.ErrConnLost):
		// ErrConnLost is the network twin of the crash sentinels: the
		// request was sent, the connection died before the result.
		j.maybe(p)
	case errors.Is(err, pacman.ErrDeadlineExceeded):
		// The timer may have beaten a commit that still lands durably.
		j.deadline++
		j.maybe(p)
	case errors.Is(err, pacman.ErrBrownout):
		j.shed++
		j.rejected++
	case errors.Is(err, pacman.ErrFrontendClosed), errors.Is(err, client.ErrClientClosed):
		j.rejected++ // never executed: no effects, no slack
	case p.mayAbort && errors.Is(err, proc.ErrAborted):
		j.aborted++ // rolled back: no effects
	case opaque:
		j.maybe(p)
	default:
		j.violations = append(j.violations,
			fmt.Sprintf("transaction failed with unexpected error: %v", err))
	}
}

type stampRec struct {
	pair int
	val  int64
}

// oracle is the cross-cycle verification state every torture shape shares:
// a single instance runs verify, where the structural invariants apply too,
// and the sharded cluster runs verifyCluster, where balance conservation
// spans every shard and the per-gtid 2PC outcomes must agree.
type oracle struct {
	workload string
	t0       int64 // initial SAVINGS+CHECKING total (smallbank)

	ackLo, ackHi     int64 // exact delta bounds from acked txns
	maybeLo, maybeHi int64 // accumulated slack from unresolved maybes

	maxAckedEpoch uint32
	ackedLogged   int64
	lastCkptID    uint32

	stamps []stampState
}

func newOracle(workload string, t0 int64, pairs int) *oracle {
	return &oracle{workload: workload, t0: t0, stamps: make([]stampState, pairs)}
}

// verify checks the oracle against a freshly recovered, started instance.
// It returns every violation found (empty means the recovery upheld all
// guarantees) and resolves outstanding maybes against what actually
// persisted, so later cycles hold this recovery to its own outcome.
func (o *oracle) verify(db *pacman.DB, res *pacman.RecoveryResult) []string {
	v := o.verifyStructure(res)
	v = append(v, o.verifyBalances(balanceTotal(db))...)
	v = append(v, o.verifyLedger(readLedger(db))...)
	return v
}

// verifyStructure checks the structural invariants of one recovery result.
// These only make sense against a single instance's epoch clock and log
// stream, so the cluster oracle (whose acks mix per-shard clocks) skips
// them.
func (o *oracle) verifyStructure(res *pacman.RecoveryResult) []string {
	var v []string
	if res.Pepoch < o.maxAckedEpoch {
		v = append(v, fmt.Sprintf("recovered pepoch %d below an acknowledged commit epoch %d: durable acks were lost",
			res.Pepoch, o.maxAckedEpoch))
	}
	if res.ResumeEpoch <= res.Pepoch {
		v = append(v, fmt.Sprintf("resume epoch %d does not clear recovered pepoch %d", res.ResumeEpoch, res.Pepoch))
	}
	if res.CheckpointID < o.lastCkptID {
		v = append(v, fmt.Sprintf("checkpoint id regressed: recovered %d after %d", res.CheckpointID, o.lastCkptID))
	}
	o.lastCkptID = res.CheckpointID
	if total := int64(res.Entries) + int64(res.Filtered); total < o.ackedLogged {
		v = append(v, fmt.Sprintf("replayed+filtered %d entries but %d logging txns were acknowledged durable",
			total, o.ackedLogged))
	}
	return v
}

// verifyBalances checks balance conservation (exact integer arithmetic)
// against the recovered SAVINGS+CHECKING total — for a cluster, the total
// summed over every shard, since a torn cross-shard transfer moves money
// between shards without conserving the sum.
func (o *oracle) verifyBalances(total int64) []string {
	if o.workload != WorkloadSmallbank {
		return nil
	}
	lo := o.t0 + o.ackLo + o.maybeLo
	hi := o.t0 + o.ackHi + o.maybeHi
	if total < lo || total > hi {
		return []string{fmt.Sprintf("balance conservation: SAVINGS+CHECKING total %d outside [%d, %d] (t0 %d, acked [%+d,%+d], maybe slack [%+d,%+d])",
			total, lo, hi, o.t0, o.ackLo, o.ackHi, o.maybeLo, o.maybeHi)}
	}
	return nil
}

// verifyLedger checks the ledger read-back — presence for acked pairs,
// atomicity for all — and freezes outstanding maybes at whatever this
// recovery persisted.
func (o *oracle) verifyLedger(ledger map[uint64]int64) []string {
	var v []string
	for i := range o.stamps {
		s := &o.stamps[i]
		if s.status == stampUnused {
			continue
		}
		a, b := ledger[pairKeyA(i)], ledger[pairKeyB(i)]
		if a != b {
			v = append(v, fmt.Sprintf("ledger pair %d TORN: rows hold %d / %d (stamp value %d, %s) — partial transaction visible",
				i, a, b, s.val, s.status))
			continue
		}
		switch s.status {
		case stampAcked:
			if a != s.val {
				v = append(v, fmt.Sprintf("ledger pair %d: acknowledged stamp %d missing, rows hold %d — durable ack lost",
					i, s.val, a))
			}
		case stampMaybe:
			if a != s.val && a != s.known {
				v = append(v, fmt.Sprintf("ledger pair %d: unacknowledged stamp read back %d, expected %d (applied) or %d (absent)",
					i, a, s.val, s.known))
				continue
			}
			// The first post-crash recovery decides — applied or absent —
			// and later recoveries must agree: freeze the pair at whatever
			// persisted by holding it to the acked contract from here on.
			s.known, s.val, s.status = a, a, stampAcked
		}
	}
	return v
}

// pairKeyA/B map a ledger pair index to its two row keys (keys start at 1).
func pairKeyA(i int) uint64 { return uint64(2*i + 1) }
func pairKeyB(i int) uint64 { return uint64(2*i + 2) }

// balanceTotal sums SAVINGS+CHECKING; amounts are integer-valued floats so
// the sum is exact. Catalogs without the Smallbank tables (the TPC-C runs,
// whose oracle skips the conservation check anyway) total zero.
func balanceTotal(db *pacman.DB) int64 {
	var total int64
	for _, name := range []string{"SAVINGS", "CHECKING"} {
		t := db.Table(name)
		if t == nil {
			continue
		}
		t.ScanIndex(0, ^uint64(0), func(r *pacman.Row) bool {
			if d := r.LatestData(); d != nil {
				total += int64(d[1].Float())
			}
			return true
		})
	}
	return total
}

// readLedger reads every ledger row's current value by key.
func readLedger(db *pacman.DB) map[uint64]int64 {
	out := map[uint64]int64{}
	db.Table(ledgerTable).ScanIndex(0, ^uint64(0), func(r *pacman.Row) bool {
		if d := r.LatestData(); d != nil {
			out[r.Key] = d[1].Int()
		}
		return true
	})
	return out
}

// absorb folds every client journal into the oracle and the run's stats
// after a crash.
// It returns the violations a journal recorded at settle time, if any —
// those are reported before the journal can contaminate the oracle state.
func (o *oracle) absorb(js []*journal, st *Stats) []string {
	for _, j := range js {
		if len(j.violations) > 0 {
			return j.violations
		}
		o.ackLo += j.ackLo
		o.ackHi += j.ackHi
		o.maybeLo += j.maybeLo
		o.maybeHi += j.maybeHi
		o.maxAckedEpoch = max(o.maxAckedEpoch, j.maxAckedEpoch)
		o.ackedLogged += j.ackedLogged
		for _, s := range j.stampsAcked {
			o.stamps[s.pair] = stampState{val: s.val, known: o.stamps[s.pair].known, status: stampAcked}
		}
		for _, s := range j.stampsMaybe {
			o.stamps[s.pair] = stampState{val: s.val, known: o.stamps[s.pair].known, status: stampMaybe}
		}
		st.Acked += j.acked
		st.AckedLogged += j.ackedLogged
		st.Maybe += j.maybes
		st.Rejected += j.rejected
		st.Aborted += j.aborted
		st.DeadlineExpired += j.deadline
		st.Shed += j.shed
	}
	return nil
}

// verifyCluster checks the recovered cluster as a whole. Per-shard epoch
// clocks are unrelated, so the single-instance structural checks do not
// apply; what must hold globally is balance conservation SUMMED over every
// shard (every cross-shard SendPayment has exact delta zero, so a torn one
// shifts the sum out of the oracle's interval), ledger atomicity (the
// ledger is unpartitioned, so every stamp routed to shard 0), and per-gtid
// 2PC outcome agreement across the shards.
func (o *oracle) verifyCluster(dbs []*pacman.DB) []string {
	var total int64
	for _, db := range dbs {
		total += balanceTotal(db)
	}
	v := o.verifyBalances(total)
	v = append(v, o.verifyLedger(readLedger(dbs[0]))...)
	v = append(v, verify2PCAgreement(dbs)...)
	return v
}

// verify2PCAgreement scans the 2PC status table on every shard: a gtid
// marked committed on one shard and aborted on another is exactly the
// partial cross-shard transaction 2PC exists to rule out, and a gtid still
// bare-prepared after the router has settled means presumed abort failed to
// drive an in-doubt transaction to a decision.
func verify2PCAgreement(dbs []*pacman.DB) []string {
	var v []string
	committed := map[uint64][]int{}
	aborted := map[uint64][]int{}
	prepared := map[uint64][]int{}
	for i, db := range dbs {
		db.Table(shard.StatusTable).ScanIndex(0, ^uint64(0), func(r *pacman.Row) bool {
			d := r.LatestData()
			if d == nil {
				return true
			}
			switch d[1].Int() {
			case shard.StatusCommitted:
				committed[r.Key] = append(committed[r.Key], i)
			case shard.StatusAborted:
				aborted[r.Key] = append(aborted[r.Key], i)
			case shard.StatusPrepared:
				prepared[r.Key] = append(prepared[r.Key], i)
			}
			return true
		})
	}
	for gtid, cs := range committed {
		if as := aborted[gtid]; len(as) > 0 {
			v = append(v, fmt.Sprintf("2PC disagreement: gtid %d committed on shards %v but aborted on shards %v — partial cross-shard transaction visible",
				gtid, cs, as))
		}
	}
	for gtid, ps := range prepared {
		v = append(v, fmt.Sprintf("2PC in-doubt: gtid %d still bare-prepared on shards %v after settlement", gtid, ps))
	}
	return v
}
