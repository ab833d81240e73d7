package wal

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pacman/internal/engine"
	"pacman/internal/metrics"
	"pacman/internal/simdisk"
)

// Batch is one reloaded log batch, delivered in batch (epoch) order. Entries
// are sorted by commit timestamp; Err, when set, ends the stream.
type Batch struct {
	Batch   uint32
	Entries []*Entry
	Err     error
}

// ReloadOptions configures a streaming Reloader.
type ReloadOptions struct {
	// Pepoch is the durability cut: entries beyond it are dropped.
	Pepoch uint32
	// CkptTS, when non-zero, drops entries already covered by a checkpoint
	// (TS <= CkptTS). The filter runs inside the decode workers, so covered
	// entries never reach the replay feed.
	CkptTS engine.TS
	// DecodeWorkers sizes the shared decode pool (default: one per device,
	// minimum 1). Decoding is out-of-order: a worker picks up whichever
	// file's bytes arrive next, regardless of batch.
	DecodeWorkers int
	// Window bounds staging memory: device readers may run at most Window
	// batches ahead of the last batch the consumer has taken (default 4).
	Window int
}

// PipelineStats describes what the reload pipeline did. The embedded
// ReloadStats' ReadTime and DecodeTime are summed across workers (the
// classic "reload time" of the paper's Figure 14a is their sum); Wall is
// the pipeline's wall clock from start to last delivery, which under
// overlap is far smaller than the sum.
type PipelineStats struct {
	ReloadStats
	// Wall is the reload pipeline's wall-clock duration.
	Wall time.Duration
}

// Reloader streams log batches from a set of devices through a three-stage
// pipeline: per-device reader goroutines (sequential I/O per device,
// concurrent across devices), a shared decode pool (out-of-order decode),
// and an ordering stage that merges each batch's per-file entry runs and
// delivers batches strictly in batch order. A bounded window keeps staging
// memory finite while letting reload of batches N+1..N+k overlap replay of
// batch N.
type Reloader struct {
	opts    ReloadOptions
	batches []BatchFiles
	out     chan Batch
	done    chan struct{}
	abortO  sync.Once
	aborted atomic.Bool

	mu        sync.Mutex
	cond      *sync.Cond
	delivered int // batches handed to the consumer
	pending   []*pendingBatch
	tail      TailRepair // verdicts of the files walked so far

	start      time.Time
	readTime   metrics.DurationSum
	decodeTime metrics.DurationSum
	wallNS     atomic.Int64
	bytes      atomic.Int64
	torn       atomic.Int64
	dropped    atomic.Int64
	filtered   atomic.Int64
	entries    atomic.Int64
}

// pendingBatch stages one batch's per-file entry runs until every file of
// the batch has been decoded.
type pendingBatch struct {
	remaining int
	runs      [][]*Entry
	err       error
}

// fileRef is one file a device reader must process, tagged with the index
// of its batch in delivery order.
type fileRef struct {
	idx  int
	file BatchFile
}

// decodeJob carries one file's raw bytes from a reader to the decode pool.
type decodeJob struct {
	idx  int
	file BatchFile
	data []byte
}

// NewReloader discovers the batches on the devices and starts the pipeline.
// The returned Reloader's Batches channel delivers every batch in order and
// is closed when the stream ends (normally or with an Err batch). Callers
// that stop consuming early must call Abort to release the pipeline.
func NewReloader(devices []*simdisk.Device, opts ReloadOptions) (*Reloader, error) {
	batches, err := Discover(devices)
	if err != nil {
		return nil, err
	}
	if opts.Window < 1 {
		opts.Window = 4
	}
	if opts.DecodeWorkers < 1 {
		opts.DecodeWorkers = len(devices)
		if opts.DecodeWorkers < 1 {
			opts.DecodeWorkers = 1
		}
	}
	r := &Reloader{
		opts:    opts,
		batches: batches,
		out:     make(chan Batch),
		done:    make(chan struct{}),
		pending: make([]*pendingBatch, len(batches)),
		start:   time.Now(),
	}
	r.cond = sync.NewCond(&r.mu)

	// Per-device work lists, in delivery order so each device reads its
	// files sequentially (the simdisk queue model rewards it).
	perDevice := make(map[*simdisk.Device][]fileRef)
	for i, bf := range batches {
		r.pending[i] = &pendingBatch{remaining: len(bf.Files)}
		for _, f := range bf.Files {
			perDevice[f.Device] = append(perDevice[f.Device], fileRef{idx: i, file: f})
		}
	}

	jobs := make(chan decodeJob, opts.DecodeWorkers)
	var readers sync.WaitGroup
	for _, refs := range perDevice {
		readers.Add(1)
		go func(refs []fileRef) {
			defer readers.Done()
			r.readDevice(refs, jobs)
		}(refs)
	}
	go func() {
		readers.Wait()
		close(jobs)
	}()
	for w := 0; w < opts.DecodeWorkers; w++ {
		go r.decodeLoop(jobs)
	}
	go r.deliver()
	return r, nil
}

// Batches returns the ordered delivery channel.
func (r *Reloader) Batches() <-chan Batch { return r.out }

// Abort tears the pipeline down; safe to call multiple times and after the
// stream has finished. Consumers that drain Batches to completion still
// should defer it for the early-error paths.
func (r *Reloader) Abort() {
	r.abortO.Do(func() {
		r.aborted.Store(true)
		close(r.done)
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
}

// Stats reports pipeline statistics; totals, and the tail-repair verdicts
// in Tail, are final once the Batches channel has closed.
func (r *Reloader) Stats() PipelineStats {
	r.mu.Lock()
	tail := r.tail
	r.mu.Unlock()
	return PipelineStats{
		ReloadStats: ReloadStats{
			Entries:    int(r.entries.Load()),
			TornFiles:  int(r.torn.Load()),
			Dropped:    int(r.dropped.Load()),
			Filtered:   int(r.filtered.Load()),
			Bytes:      r.bytes.Load(),
			ReadTime:   r.readTime.Load(),
			DecodeTime: r.decodeTime.Load(),
			Tail:       tail,
		},
		Wall: time.Duration(r.wallNS.Load()),
	}
}

// readDevice streams one device's files through the window gate into the
// decode pool.
func (r *Reloader) readDevice(refs []fileRef, jobs chan<- decodeJob) {
	for _, fr := range refs {
		r.mu.Lock()
		for fr.idx >= r.delivered+r.opts.Window && !r.aborted.Load() {
			r.cond.Wait()
		}
		r.mu.Unlock()
		if r.aborted.Load() {
			return
		}
		t0 := time.Now()
		data, err := readFileBytes(fr.file)
		r.readTime.AddSince(t0)
		if err != nil {
			r.deposit(fr.idx, fr.file, nil, err)
			continue
		}
		r.bytes.Add(int64(len(data)))
		select {
		case jobs <- decodeJob{idx: fr.idx, file: fr.file, data: data}:
		case <-r.done:
			return
		}
	}
}

func readFileBytes(f BatchFile) ([]byte, error) {
	rd, err := f.Device.Open(f.Name)
	if err != nil {
		return nil, err
	}
	return rd.ReadAll()
}

// decodeLoop drains the shared job channel: the frame walk (decode, pepoch
// cut, checkpoint filter, tail-repair verdict) and per-file TS sort all
// happen here, off the delivery path.
func (r *Reloader) decodeLoop(jobs <-chan decodeJob) {
	for job := range jobs {
		if r.aborted.Load() {
			continue // keep draining so readers never block on send
		}
		t0 := time.Now()
		w, err := walkFile(job.data, r.opts.Pepoch, r.opts.CkptTS, true)
		if err != nil {
			err = fmt.Errorf("%s: %w", job.file.Name, err)
		}
		// Each run arrives TS-sorted so delivery is a cheap k-way merge.
		sort.Slice(w.entries, func(i, j int) bool { return w.entries[i].TS < w.entries[j].TS })
		r.decodeTime.AddSince(t0)
		if w.torn() {
			r.torn.Add(1)
		}
		r.dropped.Add(int64(w.dropped))
		r.filtered.Add(int64(w.filtered))
		r.deposit(job.idx, job.file, &w, err)
	}
}

// deposit records one walked file (or its error) against its batch and
// wakes the deliverer when the batch completes.
func (r *Reloader) deposit(idx int, f BatchFile, w *fileWalk, err error) {
	r.mu.Lock()
	pb := r.pending[idx]
	if pb == nil {
		// Already delivered — only reachable through misuse, but a stray
		// late deposit must not panic a background goroutine.
		r.mu.Unlock()
		return
	}
	if err != nil && pb.err == nil {
		pb.err = err
	}
	if err == nil {
		r.tail.add(f, w)
		if len(w.entries) > 0 {
			pb.runs = append(pb.runs, w.entries)
		}
	}
	pb.remaining--
	if pb.remaining <= 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// deliver waits for each batch in order, merges its runs, and hands it to
// the consumer. Decode completes out of order; delivery never does. On any
// exit — normal completion, error batch, or consumer Abort — the pipeline
// is torn down, so a caller that merely drains Batches to close (without
// calling Abort) cannot leak reader goroutines parked on the window gate.
func (r *Reloader) deliver() {
	defer close(r.out)
	defer r.Abort()
	defer func() { r.wallNS.Store(int64(time.Since(r.start))) }()
	for i := range r.batches {
		r.mu.Lock()
		pb := r.pending[i]
		for pb.remaining > 0 && !r.aborted.Load() {
			r.cond.Wait()
		}
		if r.aborted.Load() {
			// Leave an incomplete batch staged: in-flight workers still
			// deposit into it after this abort-triggered exit.
			r.mu.Unlock()
			return
		}
		r.pending[i] = nil // fully deposited; release staging memory
		r.mu.Unlock()
		if pb.err != nil {
			select {
			case r.out <- Batch{Batch: r.batches[i].Batch, Err: pb.err}:
			case <-r.done:
			}
			return
		}
		merged := mergeRuns(pb.runs)
		r.entries.Add(int64(len(merged)))
		select {
		case r.out <- Batch{Batch: r.batches[i].Batch, Entries: merged}:
		case <-r.done:
			return
		}
		r.mu.Lock()
		r.delivered = i + 1
		r.cond.Broadcast() // open the window for the readers
		r.mu.Unlock()
	}
}

// mergeRuns k-way merges TS-sorted runs. The run count equals the batch's
// file count (one per logger), so a linear min scan beats heap overhead.
func mergeRuns(runs [][]*Entry) []*Entry {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]*Entry, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for i, r := range runs {
			if heads[i] >= len(r) {
				continue
			}
			if best < 0 || r[heads[i]].TS < runs[best][heads[best]].TS {
				best = i
			}
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
	return out
}
