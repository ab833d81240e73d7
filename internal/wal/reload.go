package wal

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pacman/internal/engine"
	"pacman/internal/frame"
	"pacman/internal/simdisk"
)

// BatchFiles identifies the files of one log batch across all loggers.
type BatchFiles struct {
	Batch uint32
	Files []BatchFile
}

// BatchFile is one logger's file for a batch.
type BatchFile struct {
	Device *simdisk.Device
	Name   string
}

// Discover enumerates the log batches present on the devices, ordered by
// batch number. Recovery replays batches in this order.
func Discover(devices []*simdisk.Device) ([]BatchFiles, error) {
	byBatch := make(map[uint32][]BatchFile)
	for _, d := range devices {
		for _, name := range d.List("log-") {
			batch, err := parseBatchName(name)
			if err != nil {
				return nil, err
			}
			byBatch[batch] = append(byBatch[batch], BatchFile{Device: d, Name: name})
		}
	}
	out := make([]BatchFiles, 0, len(byBatch))
	for b, files := range byBatch {
		sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
		out = append(out, BatchFiles{Batch: b, Files: files})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Batch < out[j].Batch })
	return out, nil
}

func parseBatchName(name string) (uint32, error) {
	parts := strings.Split(name, "-")
	if len(parts) != 3 {
		return 0, fmt.Errorf("wal: malformed log file name %q", name)
	}
	b, err := strconv.ParseUint(parts[2], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("wal: malformed batch number in %q", name)
	}
	return uint32(b), nil
}

// ReloadStats reports what reloading observed. ReadTime and DecodeTime are
// summed across the files' concurrent readers, so either reload path (the
// batch-at-a-time ReloadBatch or the streaming Reloader) reports the same
// "reload work" quantity and the two stay comparable.
type ReloadStats struct {
	Entries   int
	TornFiles int
	Dropped   int // entries beyond the persistent epoch
	// Filtered counts entries dropped because a checkpoint already covered
	// them (TS <= the caller's checkpoint TS).
	Filtered   int
	Bytes      int64
	ReadTime   time.Duration
	DecodeTime time.Duration
	// Tail is the tail-repair verdict of every file the pass walked; its
	// Apply repairs them without reading a batch file again.
	Tail TailRepair
}

// Add accumulates another pass's stats into s.
func (s *ReloadStats) Add(o ReloadStats) {
	s.Entries += o.Entries
	s.TornFiles += o.TornFiles
	s.Dropped += o.Dropped
	s.Filtered += o.Filtered
	s.Bytes += o.Bytes
	s.ReadTime += o.ReadTime
	s.DecodeTime += o.DecodeTime
	s.Tail.merge(o.Tail)
}

// ReloadBatch reads and decodes one batch's files with up to `threads`
// parallel readers, drops entries beyond pepoch and entries a checkpoint
// already covers (TS <= ckptTS; 0 disables the filter), and returns the
// entries sorted by commit timestamp — the strict commitment order the
// replay schemes require.
func ReloadBatch(bf BatchFiles, pepoch uint32, ckptTS engine.TS, threads int) ([]*Entry, ReloadStats, error) {
	if threads < 1 {
		threads = 1
	}
	type fileResult struct {
		walk       fileWalk
		bytes      int64
		readTime   time.Duration
		decodeTime time.Duration
		err        error
	}
	results := make([]fileResult, len(bf.Files))
	var wg sync.WaitGroup
	sem := make(chan struct{}, threads)
	for i, f := range bf.Files {
		wg.Add(1)
		go func(i int, f BatchFile) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			data, err := readFileBytes(f)
			results[i].readTime = time.Since(t0)
			if err != nil {
				results[i].err = err
				return
			}
			results[i].bytes = int64(len(data))
			t1 := time.Now()
			results[i].walk, err = walkFile(data, pepoch, ckptTS, true)
			results[i].decodeTime = time.Since(t1)
			if err != nil {
				results[i].err = fmt.Errorf("%s: %w", f.Name, err)
			}
		}(i, f)
	}
	wg.Wait()

	var stats ReloadStats
	var all []*Entry
	for i, r := range results {
		if r.err != nil {
			return nil, stats, r.err
		}
		all = append(all, r.walk.entries...)
		if r.walk.torn() {
			stats.TornFiles++
		}
		stats.Dropped += r.walk.dropped
		stats.Filtered += r.walk.filtered
		stats.Bytes += r.bytes
		stats.ReadTime += r.readTime
		stats.DecodeTime += r.decodeTime
		stats.Tail.add(bf.Files[i], &r.walk)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].TS < all[j].TS })
	stats.Entries = len(all)
	return all, stats, nil
}

// fileWalk is what one walk over a batch file's frames found: the entries
// to replay and the file's tail-repair verdict.
type fileWalk struct {
	entries  []*Entry
	dropped  int // ghost frames beyond pepoch: never replayed, dropped by repair
	filtered int // frames a checkpoint covers: never replayed, kept by repair
	// headerTorn marks a file whose header never became durable; it holds
	// nothing replayable and repair removes it.
	headerTorn bool
	// tornBytes counts the trailing bytes of a torn or corrupt frame (the
	// whole file when headerTorn).
	tornBytes int64
	// keep is the file as repair rewrites it: the header plus every intact
	// frame at or below pepoch, byte-exact.
	keep []byte
}

func (w *fileWalk) torn() bool { return w.headerTorn || w.tornBytes > 0 }

// walkFile is the one frame walk over a batch file that reload and tail
// repair share, so the two cannot disagree about framing. It validates
// frames in order (length + CRC) up to the first torn or corrupt one and
// drops frames beyond pepoch. With decode set, each kept frame is also
// decoded into an entry unless a checkpoint covers it (ckptTS non-zero and
// TS <= ckptTS) — a filtered frame is skipped by replay but kept by repair,
// since only the pepoch cut and torn bytes decide a rewrite. Both read the
// frame's leading TS word alone, so neither ghosts nor filtered frames are
// decoded.
//
// A file whose header is truncated or corrupt is treated as fully torn, not
// as a fatal error: a power failure between batch-file creation and the
// first sync legitimately persists an empty or partial header.
func walkFile(data []byte, pepoch uint32, ckptTS engine.TS, decode bool) (fileWalk, error) {
	var w fileWalk
	kind, _, _, rest, err := decodeFileHeader(data)
	if err != nil {
		w.headerTorn, w.tornBytes = true, int64(len(data))
		return w, nil
	}
	// Kept frames are the prefix data[:keepEnd] until a dropped frame is
	// followed by a kept one; only then are they copied out.
	keepEnd := fileHeaderSize
	for len(rest) > 0 {
		payload, n := frame.Next(rest)
		if n == 0 {
			w.tornBytes = int64(len(rest))
			break
		}
		off, rec := len(data)-len(rest), rest[:n]
		rest = rest[n:]
		ts := payloadTS(payload)
		if engine.EpochOf(ts) > pepoch {
			w.dropped++
			continue
		}
		switch {
		case w.keep != nil:
			w.keep = append(w.keep, rec...)
		case off == keepEnd:
			keepEnd += n
		default:
			w.keep = append(data[:keepEnd:keepEnd], rec...)
		}
		if ckptTS > 0 && ts <= ckptTS {
			w.filtered++
			continue
		}
		if !decode {
			continue
		}
		e, err := decodePayload(payload, kind)
		if err != nil {
			return w, err
		}
		w.entries = append(w.entries, e)
	}
	if w.keep == nil {
		w.keep = data[:keepEnd]
	}
	return w, nil
}

// ReloadAll reloads every batch in order and concatenates the entries —
// convenience for tests and the serial CLR scheme; the parallel schemes
// stream batch-by-batch instead.
func ReloadAll(devices []*simdisk.Device, pepoch uint32, threads int) ([]*Entry, ReloadStats, error) {
	batches, err := Discover(devices)
	if err != nil {
		return nil, ReloadStats{}, err
	}
	var all []*Entry
	var total ReloadStats
	for _, bf := range batches {
		es, st, err := ReloadBatch(bf, pepoch, 0, threads)
		if err != nil {
			return nil, total, err
		}
		all = append(all, es...)
		total.Add(st)
	}
	return all, total, nil
}
