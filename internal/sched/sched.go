package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pacman/internal/analysis"
	"pacman/internal/engine"
	"pacman/internal/metrics"
	"pacman/internal/mvcc"
	"pacman/internal/proc"
	"pacman/internal/wal"
)

// Mode selects how much of PACMAN's parallelism is enabled; the Figure 19
// ablation compares the three.
type Mode int

// Replay modes.
const (
	// StaticOnly executes each piece-set serially on one thread; only the
	// block-level parallelism of the static analysis is exploited.
	StaticOnly Mode = iota
	// Synchronous adds fine-grained intra-batch parallelism from the
	// dynamic analysis, with a barrier between batches.
	Synchronous
	// Pipelined additionally overlaps batches: a piece-set starts once its
	// intra-batch predecessors and its same-block predecessor in the
	// previous batch are done (Section 4.3.2).
	Pipelined
)

func (m Mode) String() string {
	switch m {
	case StaticOnly:
		return "static"
	case Synchronous:
		return "synchronous"
	case Pipelined:
		return "pipelined"
	}
	return "?"
}

// Breakdown phase names (Figure 20).
const (
	PhaseWork  = "useful work"
	PhaseLoad  = "data loading"
	PhaseCheck = "parameter checking"
	PhaseSched = "scheduling"
)

// NewBreakdown allocates a breakdown with the Figure 20 phases.
func NewBreakdown() *metrics.Breakdown {
	return metrics.NewBreakdown(PhaseWork, PhaseLoad, PhaseCheck, PhaseSched)
}

// Options tunes a Replayer. Replay recovers a single-version state, as
// PACMAN does (Section 6.2).
type Options struct {
	// Threads caps true replay parallelism (the paper's recovery-thread
	// count).
	Threads int
	Mode    Mode
	// Breakdown, if non-nil, accumulates the Figure 20 phase split. Use
	// NewBreakdown.
	Breakdown *metrics.Breakdown
}

// pipelineWindow bounds the batches in flight per block runner in
// pipelined mode; the other modes run one batch at a time.
const pipelineWindow = 4

// Replayer executes log batches against the GDG. Usage: New, Start, Submit
// one batch at a time (entries sorted by TS), then Finish.
type Replayer struct {
	gdg  *analysis.GDG
	reg  *proc.Registry
	db   *engine.Database
	opts Options

	runners []*blockRunner
	workers []int // per-block worker count (core assignment, Section 4.4)
	assignO sync.Once

	prevComplete chan struct{}

	err  atomic.Pointer[error]
	done sync.WaitGroup
}

type blockRunner struct {
	r     *Replayer
	block int
	queue chan *batchWork
	// execs holds one executor per worker of this block, each with its own
	// version pool (the per-recovery-thread pools of the Cicada idiom). The
	// block's piece-sets run one after another, so worker i of every
	// piece-set reuses execs[i].
	execs []installExec
}

// executors returns the block's first n per-worker executors.
func (br *blockRunner) executors(n int) []installExec {
	for len(br.execs) < n {
		br.execs = append(br.execs, installExec{pool: mvcc.NewPool()})
	}
	return br.execs[:n]
}

// batchWork carries one batch through the runners.
type batchWork struct {
	pieces       [][]pieceInst // per block
	doneCh       []chan struct{}
	complete     chan struct{}
	remaining    atomic.Int32
	prevComplete chan struct{}
}

// New builds a replayer.
func New(gdg *analysis.GDG, reg *proc.Registry, db *engine.Database, opts Options) *Replayer {
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	window := 1
	if opts.Mode == Pipelined {
		window = pipelineWindow
	}
	r := &Replayer{gdg: gdg, reg: reg, db: db, opts: opts}
	for b := 0; b < gdg.NumBlocks(); b++ {
		r.runners = append(r.runners, &blockRunner{
			r: r, block: b, queue: make(chan *batchWork, window),
		})
	}
	return r
}

// Start launches the block runners.
func (r *Replayer) Start() {
	for _, br := range r.runners {
		r.done.Add(1)
		go func(br *blockRunner) {
			defer r.done.Done()
			br.loop()
		}(br)
	}
}

// setErr records the first error.
func (r *Replayer) setErr(err error) {
	if err != nil {
		r.err.CompareAndSwap(nil, &err)
	}
}

// assignCores fixes per-block worker counts from the piece distribution of
// the first batch, mirroring the paper's reload-time workload estimation.
func (r *Replayer) assignCores(pieces [][]pieceInst) {
	r.assignO.Do(func() {
		r.workers = make([]int, len(pieces))
		total := 0
		for _, ps := range pieces {
			total += len(ps)
		}
		for b, ps := range pieces {
			w := 1
			if total > 0 {
				w = (r.opts.Threads*len(ps) + total/2) / total
			}
			if w < 1 {
				w = 1
			}
			r.workers[b] = w
		}
	})
}

// maxBatch bounds the entries of one scheduled batch. Consecutive slices of
// a TS-sorted log batch are themselves TS-sorted batches, so a longer batch
// is scheduled slice by slice: the block runners start on its head while
// the rest is still being instantiated, and the pipeline overlaps its
// blocks instead of waiting for whole predecessor piece-sets.
const maxBatch = 2048

// Submit schedules one batch (entries must be sorted by TS). It blocks when
// the pipeline window is full.
func (r *Replayer) Submit(entries []*wal.Entry) {
	for len(entries) > maxBatch {
		r.submit(entries[:maxBatch])
		entries = entries[maxBatch:]
	}
	r.submit(entries)
}

// submit schedules one batch of at most maxBatch entries.
func (r *Replayer) submit(entries []*wal.Entry) {
	start := time.Now()
	bw := &batchWork{
		pieces:       make([][]pieceInst, r.gdg.NumBlocks()),
		doneCh:       make([]chan struct{}, r.gdg.NumBlocks()),
		complete:     make(chan struct{}),
		prevComplete: r.prevComplete,
	}
	for b := range bw.doneCh {
		bw.doneCh[b] = make(chan struct{})
	}
	bw.remaining.Store(int32(r.gdg.NumBlocks()))

	nb := r.gdg.NumBlocks()
	for _, e := range entries {
		switch e.Kind {
		case wal.EntryCommand:
			c := r.reg.ByID(e.ProcID)
			if c == nil {
				r.setErr(fmt.Errorf("sched: unknown procedure %d", e.ProcID))
				continue
			}
			inst, err := c.NewInstance(e.Args)
			if err != nil {
				r.setErr(err)
				continue
			}
			for _, def := range r.gdg.PiecesFor(e.ProcID) {
				bw.pieces[def.Block] = append(bw.pieces[def.Block],
					pieceInst{ts: e.TS, inst: inst, def: def})
			}
		case wal.EntryTuple:
			// Ad-hoc transaction: dispatch each write to the block owning
			// its table (Section 4.5). Tables no procedure modifies fall
			// back to a deterministic block.
			byBlock := make(map[int][]wal.WriteImage)
			for _, w := range e.Writes {
				if r.db.TableByID(w.TableID) == nil {
					r.setErr(fmt.Errorf("sched: unknown table %d", w.TableID))
					continue
				}
				b := r.gdg.TableOwner(w.TableID)
				if b < 0 {
					b = w.TableID % nb
				}
				byBlock[b] = append(byBlock[b], w)
			}
			for b, ws := range byBlock {
				bw.pieces[b] = append(bw.pieces[b], pieceInst{ts: e.TS, adhoc: ws})
			}
		}
	}
	r.assignCores(bw.pieces)
	if r.opts.Breakdown != nil {
		r.opts.Breakdown.Add(PhaseCheck, time.Since(start))
	}
	r.prevComplete = bw.complete
	for _, br := range r.runners {
		br.queue <- bw
	}
}

// Consume drains an epoch-ordered feed of reloaded batches — the streaming
// handoff from wal.Reloader — submitting each batch as it arrives and
// finishing when the feed closes. Time spent blocked on the feed is reload
// starvation; it accumulates into stall when non-nil (recovery charges it
// to the Figure 20 loading phase). It returns the number of entries
// submitted and the first error; a feed error aborts the replay after the
// in-flight batches complete.
func (r *Replayer) Consume(feed <-chan wal.Batch, stall *metrics.DurationSum) (int, error) {
	r.Start()
	entries := 0
	for {
		t0 := time.Now()
		b, ok := <-feed
		if stall != nil {
			stall.AddSince(t0)
		}
		if !ok {
			break
		}
		if b.Err != nil {
			r.Finish()
			return entries, b.Err
		}
		entries += len(b.Entries)
		r.Submit(b.Entries)
	}
	return entries, r.Finish()
}

// Finish waits for all submitted batches and returns the first error.
func (r *Replayer) Finish() error {
	for _, br := range r.runners {
		close(br.queue)
	}
	r.done.Wait()
	if p := r.err.Load(); p != nil {
		return *p
	}
	return nil
}

// loop processes this block's piece-sets batch by batch.
func (br *blockRunner) loop() {
	r := br.r
	for bw := range br.queue {
		// Batch barrier in non-pipelined modes.
		if r.opts.Mode != Pipelined && bw.prevComplete != nil {
			<-bw.prevComplete
		}
		// Intra-batch block dependencies: one coordination point per
		// piece-set (Section 4.2.1).
		for _, pred := range r.gdg.Preds(br.block) {
			<-bw.doneCh[pred]
		}
		br.execPieceSet(bw.pieces[br.block])
		close(bw.doneCh[br.block])
		if bw.remaining.Add(-1) == 0 {
			close(bw.complete)
		}
	}
}

// execPieceSet runs one piece-set on the block's assigned workers.
func (br *blockRunner) execPieceSet(pieces []pieceInst) {
	r := br.r
	if len(pieces) == 0 {
		return
	}
	bd := r.opts.Breakdown
	nw := 1
	if r.opts.Mode != StaticOnly {
		nw = r.workers[br.block]
	}
	if nw == 1 {
		// One worker: a task graph could only be run in its creation (log)
		// order, which is what executing each piece whole in log order
		// already is. Skip the dry walks, key chains and tasks altogether.
		var workStart time.Time
		if bd != nil {
			workStart = time.Now()
		}
		ex := &br.executors(1)[0]
		for i := range pieces {
			if err := r.execWholePiece(&pieces[i], ex); err != nil {
				r.setErr(err)
			}
		}
		if bd != nil {
			bd.Add(PhaseWork, time.Since(workStart))
		}
		return
	}

	checkStart := time.Now()
	tasks := r.buildTasks(pieces)
	if bd != nil {
		bd.Add(PhaseCheck, time.Since(checkStart))
	}
	nw = min(nw, len(tasks))

	queue := make(chan *task, len(tasks))
	var completed atomic.Int32
	total := int32(len(tasks))
	for _, t := range tasks {
		if t.pending.Load() == 0 {
			queue <- t
		}
	}
	var wg sync.WaitGroup
	execs := br.executors(nw)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		ex := &execs[w]
		go func() {
			defer wg.Done()
			for {
				var idleStart time.Time
				if bd != nil {
					idleStart = time.Now()
				}
				t, ok := <-queue
				if !ok {
					return
				}
				if bd != nil {
					bd.Add(PhaseSched, time.Since(idleStart))
				}
				// Work-following: run one ready successor inline and only
				// enqueue the surplus, so per-key chains (the common case)
				// cost no scheduler round-trips.
				for t != nil {
					var workStart time.Time
					if bd != nil {
						workStart = time.Now()
					}
					if err := t.run(ex); err != nil {
						r.setErr(err)
					}
					if bd != nil {
						bd.Add(PhaseWork, time.Since(workStart))
						workStart = time.Now()
					}
					var next *task
					for _, s := range t.succs {
						if s.pending.Add(-1) == 0 {
							if next == nil {
								next = s
							} else {
								queue <- s
							}
						}
					}
					// The closer is necessarily the last task overall: any
					// task with a ready successor cannot be last.
					if completed.Add(1) == total {
						close(queue)
					}
					if bd != nil {
						bd.Add(PhaseSched, time.Since(workStart))
					}
					t = next
				}
			}
		}()
	}
	wg.Wait()
}
