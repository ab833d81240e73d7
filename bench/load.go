package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pacman"
	"pacman/internal/proc"
)

// future is what both client surfaces hand back for a submission:
// *pacman.Future from a Frontend, *client.Future from a connection.
type future interface {
	Done() <-chan struct{}
	Wait() (pacman.TS, error)
}

// waitLimit bounds every wait of the benchmark on the system under test: a
// future not resolved within it is a failed operation, never a hung run.
const waitLimit = 10 * time.Second

// lostMs is the latency booked for a request that failed or never resolved:
// beyond any real sample, so losing more than the percentile's tail share of
// requests shows in the percentile (JSON cannot carry an infinity).
const lostMs = 1e7

// maxSamples bounds the transactions one generator samples in one phase, so
// that a span file stays a few megabytes.
const maxSamples = 10_000

// maxLanes is the largest number of FIFO lanes a generator keeps (the
// cluster mix: one per shard plus one for cross-shard transactions).
const maxLanes = 3

// phase describes one load phase: who submits, how fast, for how long. A
// timed phase measures over one window, [warm, warm+seg) from its start.
type phase struct {
	name string
	mix  *mix
	// submitters[g] hands one request of generator goroutine g to the
	// system (one connection each on the wire).
	submitters []func(o *op) future
	// window is the in-flight cap per lane of one generator.
	window int
	// rate > 0 makes the phase open-loop at that many requests per second
	// over all generators; 0 is closed-loop, as fast as the system admits.
	rate float64
	// count > 0 ends the phase after that many submissions instead of at
	// the end of the window.
	count int64
	warm  time.Duration
	seg   time.Duration
	seed  int64
	// sample records the stamps of one transaction in this many (0: none).
	sample int
}

// txnSample is the life of one sampled transaction as the benchmark saw
// it, in nanoseconds since the phase began. execAt is 0 on the wire, where
// the client's future does not carry the server's stamps.
type txnSample struct {
	due, submitStart, submitEnd, execAt, durableAt, wake int64
}

// phaseResult is what a phase measured.
type phaseResult struct {
	name      string
	t0        time.Time
	wall      time.Duration
	submitted int64
	acked     int64
	logged    int64 // acked requests that always write a log entry
	maybeLog  int64 // acked requests that write one only when they change something
	aborted   int64 // expected business roll-backs
	failed    int64
	deposits  float64
	crossAck  int64
	submitNs  int64 // time callers spent inside submit calls
	// Over the window: durable acks that landed in it, and for an open-loop
	// phase the latency in ms, from the scheduled send time, of each request
	// due in it (cross-shard ones apart).
	windowAcks int64
	lat        []float64
	latCross   []float64
	lateUs     []float64 // how late the open-loop generator ran, per request
	unresolved int64     // futures in flight at the end of the window
	samples    []txnSample
	// Process-wide counters over the window.
	cpu     time.Duration
	mallocs uint64
	errs    []string
}

// pending is one in-flight request in a lane's FIFO.
type pending struct {
	fut      future
	due      int64 // ns since the phase began
	smp      int32 // index into the generator's samples, -1 when not sampled
	mayAbort bool
	logs     logging
	cross    bool
	deposit  float64
}

// lane is a ring of in-flight requests whose acks arrive in order.
type lane struct {
	ring []pending
	head int
	n    int
}

func (l *lane) push(p pending) {
	l.ring[(l.head+l.n)%len(l.ring)] = p
	l.n++
}

func (l *lane) pop() pending {
	p := l.ring[l.head]
	l.ring[l.head] = pending{}
	l.head = (l.head + 1) % len(l.ring)
	l.n--
	return p
}

// headDone is the resolution channel of the lane's oldest request, or nil
// (which blocks forever in a select) when the lane is empty.
func (l *lane) headDone() <-chan struct{} {
	if l.n == 0 {
		return nil
	}
	return l.ring[l.head].fut.Done()
}

// generator is one load goroutine: it owns its random stream, its lanes
// and its counters, so nothing on the submission path is shared.
type generator struct {
	p        *phase
	g        int
	rng      *rand.Rand
	submit   func(o *op) future
	lanes    [maxLanes]lane
	timer    *time.Timer
	abort    *atomic.Bool
	budget   *atomic.Int64
	res      phaseResult
	from, to time.Duration // the window, since the phase began
}

func (g *generator) inflight() int64 {
	var n int64
	for i := range g.lanes {
		n += int64(g.lanes[i].n)
	}
	return n
}

// settle accounts one resolved request. now is when the generator noticed
// the resolution; a Frontend future carries the exact release instant.
func (g *generator) settle(p pending, now time.Time) {
	_, err := p.fut.Wait()
	done := now
	pf, embedded := p.fut.(*pacman.Future)
	if embedded {
		done = pf.DurableAt()
	}
	r := &g.res
	if p.smp >= 0 {
		s := &r.samples[p.smp]
		s.wake = int64(now.Sub(r.t0))
		s.durableAt = int64(done.Sub(r.t0))
		if embedded {
			if at := pf.ExecAt(); !at.IsZero() {
				s.execAt = int64(at.Sub(r.t0))
			}
		}
	}
	switch {
	case err == nil:
		r.acked++
		switch p.logs {
		case logsAlways:
			r.logged++
		case logsMaybe:
			r.maybeLog++
		}
		if p.cross {
			r.crossAck++
		}
		r.deposits += p.deposit
		if at := done.Sub(r.t0); at >= g.from && at < g.to {
			r.windowAcks++
		}
		if g.dueInWindow(p) {
			ms := float64(done.Sub(r.t0)-time.Duration(p.due)) / 1e6
			if p.cross {
				r.latCross = append(r.latCross, ms)
			} else {
				r.lat = append(r.lat, ms)
			}
		}
	case p.mayAbort && errors.Is(err, proc.ErrAborted):
		r.aborted++
	default:
		g.fail(p, err)
	}
}

// dueInWindow reports whether an open-loop request was scheduled inside the
// measured window, and so contributes a latency sample.
func (g *generator) dueInWindow(p pending) bool {
	due := time.Duration(p.due)
	return g.p.rate > 0 && due >= g.from && due < g.to
}

// fail counts a request that errored or never resolved; in an open-loop
// phase it also stands as an infinitely slow sample.
func (g *generator) fail(p pending, err error) {
	r := &g.res
	r.failed++
	if len(r.errs) < 3 {
		r.errs = append(r.errs, err.Error())
	}
	if g.dueInWindow(p) {
		r.lat = append(r.lat, lostMs)
	}
}

func resolved(f future) bool {
	select {
	case <-f.Done():
		return true
	default:
		return false
	}
}

// reapReady settles every request at a lane head that has resolved.
func (g *generator) reapReady() {
	var now time.Time
	for i := 0; i < g.p.mix.lanes; i++ {
		l := &g.lanes[i]
		for l.n > 0 && resolved(l.ring[l.head].fut) {
			if now.IsZero() {
				now = time.Now()
			}
			g.settle(l.pop(), now)
		}
	}
}

// waitAny blocks until a lane head resolves or d passes.
func (g *generator) waitAny(d time.Duration) {
	g.timer.Reset(d)
	select {
	case <-g.lanes[0].headDone():
	case <-g.lanes[1].headDone():
	case <-g.lanes[2].headDone():
	case <-g.timer.C:
		return
	}
	g.timer.Stop()
}

// reapOne blocks for the head of l, bounded by waitLimit. A request that
// outlives the limit fails, and the phase stops submitting: every later
// wait would only time out behind it.
func (g *generator) reapOne(l *lane) {
	g.timer.Reset(waitLimit)
	select {
	case <-l.headDone():
		g.timer.Stop()
		g.settle(l.pop(), time.Now())
	case <-g.timer.C:
		g.abort.Store(true)
		g.fail(l.pop(), fmt.Errorf("no result within %v", waitLimit))
	}
}

// drain reaps everything still in flight once submission has stopped.
func (g *generator) drain() {
	for i := 0; i < g.p.mix.lanes; i++ {
		l := &g.lanes[i]
		for l.n > 0 {
			if g.abort.Load() {
				// Stop waiting after the first timeout: count what has
				// resolved, fail the rest.
				if resolved(l.ring[l.head].fut) {
					g.settle(l.pop(), time.Now())
				} else {
					g.fail(l.pop(), errors.New("unresolved when the phase was abandoned"))
				}
				continue
			}
			g.reapOne(l)
		}
	}
}

func (g *generator) run() {
	p := g.p
	r := &g.res
	gens := len(p.submitters)
	end := r.t0.Add(g.to)
	var interval time.Duration
	if p.rate > 0 {
		interval = time.Duration(float64(time.Second) / p.rate)
	}
submitting:
	for k := int64(0); !g.abort.Load(); k++ {
		var due time.Time
		switch {
		case interval > 0:
			// Open loop: request k of generator g is due at a fixed instant
			// whatever the system is doing, and is timed from that instant.
			due = r.t0.Add(time.Duration(k*int64(gens)+int64(g.g)) * interval)
			if !due.Before(end) {
				break submitting
			}
			for {
				g.reapReady()
				d := time.Until(due)
				if d <= 0 {
					break
				}
				g.waitAny(d)
			}
			r.lateUs = append(r.lateUs, float64(time.Since(due))/1e3)
		case p.count > 0:
			if g.budget.Add(-1) < 0 {
				break submitting
			}
			due = time.Now()
		default:
			due = time.Now()
			if !due.Before(end) {
				break submitting
			}
		}

		o := p.mix.next(g.rng)
		l := &g.lanes[o.lane]
		for l.n == len(l.ring) && !g.abort.Load() {
			g.reapOne(l)
		}
		pd := pending{due: int64(due.Sub(r.t0)), smp: -1, mayAbort: o.mayAbort, logs: o.logs, cross: o.cross, deposit: o.deposit}
		if p.sample > 0 {
			t0 := time.Now()
			pd.fut = g.submit(&o)
			t1 := time.Now()
			r.submitNs += int64(t1.Sub(t0))
			if k%int64(p.sample) == 0 && len(r.samples) < maxSamples {
				pd.smp = int32(len(r.samples))
				r.samples = append(r.samples, txnSample{due: pd.due,
					submitStart: int64(t0.Sub(r.t0)), submitEnd: int64(t1.Sub(r.t0))})
			}
		} else {
			pd.fut = g.submit(&o)
		}
		r.submitted++
		l.push(pd)
		g.reapReady()
	}
	// Submission stops where the window ends, so what is in flight now is
	// what the window left unresolved.
	r.unresolved = g.inflight()
	g.drain()
}

// runPhase drives one phase to completion and merges what its generators
// saw. The caller's goroutine samples the process-wide counters at the
// window's start and end.
func runPhase(p *phase) *phaseResult {
	if p.mix.lanes > maxLanes {
		panic("bench: mix has more lanes than a generator keeps")
	}
	t0 := time.Now()
	var abort atomic.Bool
	var budget atomic.Int64
	budget.Store(p.count)
	gens := make([]*generator, len(p.submitters))
	var wg sync.WaitGroup
	for i := range gens {
		g := &generator{
			p: p, g: i, submit: p.submitters[i], abort: &abort, budget: &budget,
			rng:   newRand(p.seed, i),
			timer: time.NewTimer(time.Hour),
			from:  p.warm, to: p.warm + p.seg,
		}
		g.timer.Stop()
		for l := 0; l < p.mix.lanes; l++ {
			g.lanes[l].ring = make([]pending, p.window)
		}
		g.res.t0 = t0
		gens[i] = g
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.run()
		}()
	}

	out := &phaseResult{name: p.name, t0: t0}
	if p.count == 0 {
		time.Sleep(time.Until(t0.Add(p.warm)))
		cpu0, m0 := cpuTime(), mallocs()
		time.Sleep(time.Until(t0.Add(p.warm + p.seg)))
		out.cpu, out.mallocs = cpuTime()-cpu0, mallocs()-m0
	}
	wg.Wait()
	out.wall = time.Since(t0)

	for _, g := range gens {
		r := &g.res
		out.submitted += r.submitted
		out.acked += r.acked
		out.logged += r.logged
		out.maybeLog += r.maybeLog
		out.aborted += r.aborted
		out.failed += r.failed
		out.deposits += r.deposits
		out.crossAck += r.crossAck
		out.submitNs += r.submitNs
		out.windowAcks += r.windowAcks
		out.unresolved += r.unresolved
		out.lat = append(out.lat, r.lat...)
		out.latCross = append(out.latCross, r.latCross...)
		out.lateUs = append(out.lateUs, r.lateUs...)
		out.samples = append(out.samples, r.samples...)
		out.errs = append(out.errs, r.errs...)
	}
	return out
}
