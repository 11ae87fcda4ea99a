// Package journal is the crash-durability layer under the streaming
// session table: a length+CRC-framed, segment-rotated write-ahead log with
// group-commit fsync batching, periodic compacted snapshots, and
// torn-tail-tolerant recovery. It follows Alpaca's redo-logging design
// (PAPERS.md, arXiv 1909.06951): mutations are appended as small redo
// records instead of checkpointing the full state on every change, and a
// snapshot every so often bounds replay time and reclaims segments.
//
// The package is payload-agnostic — records and snapshots are opaque byte
// slices (internal/session owns their encoding) — so its invariants are
// purely about bytes on disk:
//
//   - a record is acknowledged (Ticket.Wait returns nil) only after its
//     frame is written and, unless Options.Fsync is off, fsynced;
//   - frames are durable in Append order: the single writer goroutine
//     drains the enqueue queue in order and one fsync covers the whole
//     batch (group commit — concurrent appenders share fsyncs);
//   - recovery replays the newest valid snapshot plus every whole valid
//     frame after it, stops at the first bad frame (short header, bogus
//     length, CRC mismatch), truncates the torn tail, and never resurrects
//     bytes past the first corruption;
//   - a snapshot enqueued between two appends cleanly partitions them:
//     everything before it compacts away, everything after it replays.
//
// File layout inside Options.Dir:
//
//	seg-00000001.wal   frames, rotated at SegmentBytes
//	snap-00000004.snap one frame: state as of the start of segment 4
//
// A snapshot forces a rotation first, so snap-N.snap plus segments >= N is
// always a complete replay set; older segments and snapshots are deleted
// once the snapshot rename is durable.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Defaults for Options' zero values.
const (
	DefaultSegmentBytes = 4 << 20
	// maxFrameBytes bounds one frame; a scanned length beyond it is
	// corruption, not a huge record (the session tier's records are KBs).
	maxFrameBytes = 64 << 20
	// frameHeader is the [u32 length][u32 crc] prefix.
	frameHeader = 8
)

// ErrClosed reports an operation on a closed (or poisoned) journal.
var ErrClosed = errors.New("journal: closed")

// Options configures Open.
type Options struct {
	// Dir holds the segments and snapshots; created if missing.
	Dir string
	// SegmentBytes rotates the active segment once it grows past this
	// (<=0: DefaultSegmentBytes).
	SegmentBytes int64
	// Fsync, when true, fsyncs each group-committed batch before its
	// waiters are released — the durable-ack mode. Off trades the
	// power-loss guarantee for write speed (page cache only).
	Fsync bool
}

// Recovery is what Open found on disk: the newest valid snapshot payload
// (nil if none) and every valid record frame after it, in append order.
type Recovery struct {
	Snapshot []byte
	Records  [][]byte
	// Segments is how many segment files were scanned.
	Segments int
	// Truncated is how many bytes were discarded at the first bad frame
	// (torn tail, CRC mismatch, or unreachable later segments).
	Truncated int64
}

// Stats counts a journal's lifetime I/O, exposed for the group-commit
// throughput benchmarks: Fsyncs < Appends means batching is working.
type Stats struct {
	Appends   uint64 `json:"appends"`
	Snapshots uint64 `json:"snapshots"`
	Batches   uint64 `json:"batches"`
	Fsyncs    uint64 `json:"fsyncs"`
	Rotations uint64 `json:"rotations"`
	Bytes     int64  `json:"bytes"`
	Segment   uint64 `json:"segment"`
}

// Ticket is one enqueued record's durability handle.
type Ticket struct {
	done chan error
	err  error
	got  bool
}

// Failed returns a ticket already resolved to err — for callers whose
// record never reached the queue (an encode failure upstream).
func Failed(err error) *Ticket {
	ch := make(chan error, 1)
	ch <- err
	return &Ticket{done: ch}
}

// Wait blocks until the record's batch is flushed (and fsynced, in Fsync
// mode) and returns the write outcome. Safe to call more than once.
func (tk *Ticket) Wait() error {
	if !tk.got {
		tk.err = <-tk.done
		tk.got = true
	}
	return tk.err
}

type request struct {
	payload  []byte
	snapshot bool
	done     chan error
}

// Journal is an open write-ahead log. Append and Snapshot may be called
// concurrently; one writer goroutine owns the files.
type Journal struct {
	opts Options

	mu     sync.Mutex
	queue  []request
	closed bool

	kick chan struct{} // cap 1: wakes the writer
	done chan struct{} // closed when the writer exits

	// Writer-goroutine state (no locking: single owner).
	f       *os.File
	seg     uint64 // active segment number
	segSize int64
	failed  error // first I/O error; poisons every later request

	appends, snapshots, batches, fsyncs, rotations atomic.Uint64
	bytes                                          atomic.Int64
	segNow                                         atomic.Uint64
}

// Open scans dir, recovers the replayable state (newest valid snapshot +
// valid frames after it, torn tail truncated), and returns a journal
// positioned to append after the last valid frame.
func Open(opts Options) (*Journal, Recovery, error) {
	if opts.Dir == "" {
		return nil, Recovery{}, errors.New("journal: empty dir")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		opts: opts,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	rec, err := j.scan()
	if err != nil {
		return nil, Recovery{}, err
	}
	j.segNow.Store(j.seg)
	go j.writer()
	return j, rec, nil
}

// scan performs the recovery read: pick the snapshot, replay segments,
// truncate at the first bad frame, and open the tail segment for append.
func (j *Journal) scan() (Recovery, error) {
	entries, err := os.ReadDir(j.opts.Dir)
	if err != nil {
		return Recovery{}, fmt.Errorf("journal: %w", err)
	}
	segs := map[uint64]string{}
	var segNums []uint64
	var snapNums []uint64
	snaps := map[uint64]string{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// A snapshot that never made its rename: dead by construction.
			os.Remove(filepath.Join(j.opts.Dir, name))
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			if n, ok := parseNum(name, "seg-", ".wal"); ok {
				segs[n] = name
				segNums = append(segNums, n)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if n, ok := parseNum(name, "snap-", ".snap"); ok {
				snaps[n] = name
				snapNums = append(snapNums, n)
			}
		}
	}
	sort.Slice(segNums, func(a, b int) bool { return segNums[a] < segNums[b] })
	sort.Slice(snapNums, func(a, b int) bool { return snapNums[a] > snapNums[b] })

	var rec Recovery
	var snapFrom uint64 = 0
	for _, n := range snapNums {
		payload, ok := readSnapshotFile(filepath.Join(j.opts.Dir, snaps[n]))
		if ok && (rec.Snapshot == nil) {
			rec.Snapshot = payload
			snapFrom = n
			continue
		}
		// Corrupt, or older than the chosen one: gone either way.
		os.Remove(filepath.Join(j.opts.Dir, snaps[n]))
	}

	// Replay the contiguous run of segments starting at the snapshot
	// boundary (or the oldest segment). A numbering gap means the later
	// segments are unreachable — records in them depend on deleted state —
	// so they are discarded, exactly like bytes past a bad frame.
	var run []uint64
	for _, n := range segNums {
		if n < snapFrom {
			os.Remove(filepath.Join(j.opts.Dir, segs[n])) // compacted away
			continue
		}
		run = append(run, n)
	}
	stop := len(run)
	if snapFrom > 0 && len(run) > 0 && run[0] != snapFrom {
		// The snapshot's boundary segment is gone: every later segment's
		// records assume state we no longer have.
		stop = 0
	}
	for i := 1; i < stop; i++ {
		if run[i] != run[i-1]+1 {
			stop = i
			break
		}
	}
	for _, n := range run[stop:] {
		path := filepath.Join(j.opts.Dir, segs[n])
		if st, err := os.Stat(path); err == nil {
			rec.Truncated += st.Size()
		}
		os.Remove(path)
	}
	run = run[:stop]

	truncatedAt := -1 // index in run where a bad frame cut the scan short
	for i, n := range run {
		path := filepath.Join(j.opts.Dir, segs[n])
		frames, validBytes, total, err := scanSegment(path)
		if err != nil {
			return Recovery{}, err
		}
		rec.Records = append(rec.Records, frames...)
		rec.Segments++
		if validBytes < total {
			rec.Truncated += total - validBytes
			if err := os.Truncate(path, validBytes); err != nil {
				return Recovery{}, fmt.Errorf("journal: truncate torn tail: %w", err)
			}
			truncatedAt = i
			break
		}
	}
	if truncatedAt >= 0 {
		// Nothing after the first corruption survives.
		for _, n := range run[truncatedAt+1:] {
			path := filepath.Join(j.opts.Dir, segs[n])
			if st, err := os.Stat(path); err == nil {
				rec.Truncated += st.Size()
			}
			os.Remove(path)
		}
		run = run[:truncatedAt+1]
	}

	// Open (or create) the tail segment for appending.
	j.seg = snapFrom
	if j.seg == 0 {
		j.seg = 1
	}
	if len(run) > 0 {
		j.seg = run[len(run)-1]
	}
	path := j.segPath(j.seg)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return Recovery{}, fmt.Errorf("journal: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return Recovery{}, fmt.Errorf("journal: %w", err)
	}
	j.f, j.segSize = f, size
	if err := syncDir(j.opts.Dir); err != nil {
		f.Close()
		return Recovery{}, err
	}
	return rec, nil
}

func (j *Journal) segPath(n uint64) string {
	return filepath.Join(j.opts.Dir, fmt.Sprintf("seg-%08d.wal", n))
}

func (j *Journal) snapPath(n uint64) string {
	return filepath.Join(j.opts.Dir, fmt.Sprintf("snap-%08d.snap", n))
}

func parseNum(name, prefix, suffix string) (uint64, bool) {
	s := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if s == "" {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + uint64(s[i]-'0')
	}
	return n, n > 0
}

// frame encodes one payload with its length+CRC header.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeader:], payload)
	return buf
}

// scanSegment reads every whole valid frame from one segment. validBytes is
// the offset of the first bad frame (== total when the whole file is good).
func scanSegment(path string) (frames [][]byte, validBytes, total int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: %w", err)
	}
	total = int64(len(data))
	off := int64(0)
	for off+frameHeader <= total {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxFrameBytes || off+frameHeader+n > total {
			break // bogus length or torn tail
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		frames = append(frames, append([]byte(nil), payload...))
		off += frameHeader + n
	}
	return frames, off, total, nil
}

// readSnapshotFile parses a snapshot file: exactly one valid frame.
func readSnapshotFile(path string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < frameHeader {
		return nil, false
	}
	n := int64(binary.LittleEndian.Uint32(data[0:4]))
	crc := binary.LittleEndian.Uint32(data[4:8])
	if n == 0 || n > maxFrameBytes || frameHeader+n != int64(len(data)) {
		return nil, false
	}
	payload := data[frameHeader:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, false
	}
	return payload, true
}

// Append enqueues one record. The returned ticket resolves once the record
// is durable (group-committed with its batch). Append itself never blocks
// on I/O — callers may enqueue under their own locks and Wait outside.
func (j *Journal) Append(payload []byte) *Ticket {
	return j.enqueue(payload, false)
}

// Snapshot enqueues a compacted state image. Its position in the enqueue
// order is its consistency contract: records enqueued before it are
// compacted away, records enqueued after it survive into the new segment —
// so a caller that captures its state and enqueues the snapshot under the
// same locks that order its Appends gets a perfect partition.
func (j *Journal) Snapshot(payload []byte) *Ticket {
	return j.enqueue(payload, true)
}

func (j *Journal) enqueue(payload []byte, snapshot bool) *Ticket {
	tk := &Ticket{done: make(chan error, 1)}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		tk.done <- ErrClosed
		return tk
	}
	j.queue = append(j.queue, request{payload: payload, snapshot: snapshot, done: tk.done})
	j.mu.Unlock()
	select {
	case j.kick <- struct{}{}:
	default:
	}
	return tk
}

// Close flushes the queue, syncs, and stops the writer. Further operations
// return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.done
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	select {
	case j.kick <- struct{}{}:
	default:
	}
	<-j.done
	return j.failed
}

// Stats snapshots the I/O counters.
func (j *Journal) Stats() Stats {
	return Stats{
		Appends:   j.appends.Load(),
		Snapshots: j.snapshots.Load(),
		Batches:   j.batches.Load(),
		Fsyncs:    j.fsyncs.Load(),
		Rotations: j.rotations.Load(),
		Bytes:     j.bytes.Load(),
		Segment:   j.segNow.Load(),
	}
}

// writer is the single goroutine that owns the files: it drains the queue
// in enqueue order, writes appends in batches with one fsync per batch,
// and executes snapshot requests as rotation+compaction barriers.
func (j *Journal) writer() {
	defer close(j.done)
	for {
		j.mu.Lock()
		batch := j.queue
		j.queue = nil
		closed := j.closed
		j.mu.Unlock()
		if len(batch) > 0 {
			j.process(batch)
		}
		if closed {
			j.mu.Lock()
			rest := j.queue
			j.queue = nil
			j.mu.Unlock()
			if len(rest) > 0 {
				j.process(rest)
			}
			if j.f != nil {
				if j.failed == nil && j.opts.Fsync {
					j.failed = j.f.Sync()
				}
				j.f.Close()
			}
			return
		}
		<-j.kick
	}
}

// process handles one drained batch: contiguous appends are written and
// fsynced together; a snapshot flushes what precedes it, then rotates.
func (j *Journal) process(batch []request) {
	var pending []request
	var buf []byte
	flush := func() {
		if len(pending) == 0 {
			return
		}
		err := j.failed
		if err == nil {
			err = j.writeAll(buf)
		}
		if err == nil && j.opts.Fsync {
			j.fsyncs.Add(1)
			err = j.f.Sync()
		}
		if err != nil && j.failed == nil {
			j.failed = err
		}
		j.batches.Add(1)
		if err == nil {
			// Counted before the acks, so a caller whose Wait returned
			// sees its append in Stats.
			j.appends.Add(uint64(len(pending)))
		}
		for _, req := range pending {
			req.done <- err
		}
		if err == nil {
			j.maybeRotate()
		}
		pending, buf = pending[:0], buf[:0]
	}
	for _, req := range batch {
		if !req.snapshot {
			buf = append(buf, frame(req.payload)...)
			pending = append(pending, req)
			continue
		}
		flush()
		err := j.failed
		if err == nil {
			err = j.doSnapshot(req.payload)
			if err != nil && j.failed == nil {
				j.failed = err
			}
		}
		req.done <- err
	}
	flush()
}

func (j *Journal) writeAll(buf []byte) error {
	n, err := j.f.Write(buf)
	j.segSize += int64(n)
	j.bytes.Add(int64(n))
	if err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	return nil
}

// maybeRotate opens the next segment once the active one is past the size
// threshold. The old segment stays until a snapshot compacts it away.
func (j *Journal) maybeRotate() {
	if j.segSize < j.opts.SegmentBytes {
		return
	}
	if err := j.rotate(); err != nil && j.failed == nil {
		j.failed = err
	}
}

func (j *Journal) rotate() error {
	if j.opts.Fsync {
		j.fsyncs.Add(1)
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync before rotate: %w", err)
		}
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	j.seg++
	f, err := os.OpenFile(j.segPath(j.seg), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f, j.segSize = f, 0
	j.rotations.Add(1)
	j.segNow.Store(j.seg)
	return syncDir(j.opts.Dir)
}

// doSnapshot executes one snapshot barrier: rotate so the image covers
// exactly the segments before the new one, write snap-N.tmp, fsync, rename,
// fsync the directory, then delete everything the snapshot supersedes.
func (j *Journal) doSnapshot(payload []byte) error {
	if err := j.rotate(); err != nil {
		return err
	}
	n := j.seg
	tmp := j.snapPath(n) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	buf := frame(payload)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("journal: snapshot write: %w", err)
	}
	j.bytes.Add(int64(len(buf)))
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, j.snapPath(n)); err != nil {
		return fmt.Errorf("journal: snapshot rename: %w", err)
	}
	if err := syncDir(j.opts.Dir); err != nil {
		return err
	}
	// Compaction: older segments and snapshots are now redundant.
	entries, err := os.ReadDir(j.opts.Dir)
	if err == nil {
		for _, e := range entries {
			name := e.Name()
			if num, ok := parseNum(name, "seg-", ".wal"); ok && strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal") && num < n {
				os.Remove(filepath.Join(j.opts.Dir, name))
			}
			if num, ok := parseNum(name, "snap-", ".snap"); ok && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") && num < n {
				os.Remove(filepath.Join(j.opts.Dir, name))
			}
		}
	}
	j.snapshots.Add(1)
	return nil
}

// syncDir fsyncs a directory so renames and creates inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}
