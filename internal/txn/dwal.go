package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"stagedb/internal/storage"
)

// DurableWAL is the on-disk log: CRC-framed records in a single append-only
// file, flushed by one flusher goroutine that batches the fsync across every
// commit that arrived while the previous flush was in flight (group commit).
// A committer appends its commit record, wakes the flusher, and parks until
// the flushed LSN passes its record; the fsync cost is amortized over the
// whole group.
//
// LSNs are file offsets biased by the file's start LSN, recorded in the
// header. Rotation (at checkpoint) starts a fresh file whose start LSN is
// the old end LSN, so LSNs stay globally monotonic across rotations and
// pageLSN comparisons never see time move backward.
//
// A failed write or fsync poisons the log: the error sticks, every parked
// and future committer gets it, and nothing is acknowledged that is not on
// disk. Recovery of the tail is the reader's job — ScanWAL stops at the
// first bad CRC and OpenDurableWAL truncates the torn bytes.
type DurableWAL struct {
	fsys storage.FS
	path string

	mu             sync.Mutex
	cond           *sync.Cond
	f              storage.File
	buf            []byte // appended, not yet written
	startLSN       uint64 // LSN of the byte at walHeaderSize in the current file
	rotatedLSN     uint64 // endLSN just after the last rotation (startLSN at open)
	endLSN         uint64 // next LSN to assign
	flushedLSN     uint64 // every LSN < flushedLSN is on stable storage
	fileOff        int64  // file offset where buf will land
	pendingCommits int
	poison         error
	closed         bool

	ioMu          sync.Mutex // serializes WriteAt+Sync sequences
	syncPerCommit bool
	wake          chan struct{}
	done          chan struct{}

	appends     atomic.Uint64
	flushes     atomic.Uint64
	syncs       atomic.Uint64
	syncedBytes atomic.Uint64
	commits     atomic.Uint64
	groups      atomic.Uint64
	groupSum    atomic.Uint64
	groupMax    atomic.Uint64
	checkpoints atomic.Uint64
}

const (
	walMagic      = "SDBWAL1\n"
	walHeaderSize = 20 // magic(8) + startLSN(8) + crc32(4)
	frameHdrSize  = 8  // payloadLen(4) + crc32(4)
	// firstLSN is the LSN of the first record ever; 0 stays "no LSN" so
	// freshly formatted pages (pageLSN 0) sort before everything.
	firstLSN = 1
)

// ErrWALClosed is returned for appends and waits after Close.
var ErrWALClosed = errors.New("txn: wal closed")

// ScanResult is what reading a log file back yields.
type ScanResult struct {
	Records   []Record
	StartLSN  uint64
	EndLSN    uint64 // LSN just past the last intact record
	TornBytes int64  // bytes discarded from the torn tail
}

// OpenDurableWAL opens (creating if needed) the log at path, scans it, and
// physically truncates any torn tail so the next append lands at a clean
// record boundary. syncPerCommit disables group commit: every commit issues
// its own fsync (the honest baseline the benchmarks compare against).
func OpenDurableWAL(fsys storage.FS, path string, syncPerCommit bool) (*DurableWAL, *ScanResult, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("txn: open wal: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("txn: stat wal: %w", err)
	}
	w := &DurableWAL{
		fsys:          fsys,
		path:          path,
		f:             f,
		syncPerCommit: syncPerCommit,
		wake:          make(chan struct{}, 1),
		done:          make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	scan := &ScanResult{StartLSN: firstLSN, EndLSN: firstLSN}
	if size < walHeaderSize {
		// Empty, or torn during creation — no record can exist yet.
		if err := w.writeHeader(f, firstLSN); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.startLSN, w.rotatedLSN, w.endLSN, w.flushedLSN = firstLSN, firstLSN, firstLSN, firstLSN
		w.fileOff = walHeaderSize
	} else {
		start, err := readWALHeader(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		scan, err = scanFrom(f, start, size)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if scan.TornBytes > 0 {
			keep := walHeaderSize + int64(scan.EndLSN-scan.StartLSN)
			if err := f.Truncate(keep); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("txn: truncate torn wal tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("txn: sync truncated wal: %w", err)
			}
		}
		w.startLSN, w.rotatedLSN = scan.StartLSN, scan.StartLSN
		w.endLSN, w.flushedLSN = scan.EndLSN, scan.EndLSN
		w.fileOff = walHeaderSize + int64(scan.EndLSN-scan.StartLSN)
	}
	go w.flusher()
	return w, scan, nil
}

func (w *DurableWAL) writeHeader(f storage.File, startLSN uint64) error {
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], startLSN)
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(hdr[:16]))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("txn: write wal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("txn: sync wal header: %w", err)
	}
	return nil
}

func readWALHeader(f storage.File) (startLSN uint64, err error) {
	var hdr [walHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("txn: read wal header: %w", err)
	}
	if string(hdr[:8]) != walMagic {
		return 0, fmt.Errorf("txn: %q is not a stagedb wal", string(hdr[:8]))
	}
	if crc32.ChecksumIEEE(hdr[:16]) != binary.LittleEndian.Uint32(hdr[16:20]) {
		return 0, errors.New("txn: wal header checksum mismatch")
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), nil
}

// ScanWAL reads every intact record of an already-opened log file. It stops
// (without error) at the first short or checksum-failing frame: that is the
// torn tail a crash mid-write leaves, and everything before it is intact by
// construction (records are CRC-framed and written in order).
func ScanWAL(f storage.File) (*ScanResult, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	start, err := readWALHeader(f)
	if err != nil {
		return nil, err
	}
	return scanFrom(f, start, size)
}

func scanFrom(f storage.File, startLSN uint64, size int64) (*ScanResult, error) {
	res := &ScanResult{StartLSN: startLSN, EndLSN: startLSN}
	body := make([]byte, size-walHeaderSize)
	if len(body) > 0 {
		if n, err := f.ReadAt(body, walHeaderSize); err != nil {
			body = body[:n] // a short tail read is handled as torn below
		}
	}
	off := 0
	for {
		rest := body[off:]
		if len(rest) < frameHdrSize {
			res.TornBytes = int64(len(rest))
			return res, nil
		}
		plen := int(binary.LittleEndian.Uint32(rest[:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if plen <= 0 || plen > len(rest)-frameHdrSize {
			res.TornBytes = int64(len(rest))
			return res, nil
		}
		payload := rest[frameHdrSize : frameHdrSize+plen]
		if crc32.ChecksumIEEE(payload) != sum {
			res.TornBytes = int64(len(rest))
			return res, nil
		}
		rec, err := decodePayload(payload)
		if err != nil {
			res.TornBytes = int64(len(rest))
			return res, nil
		}
		rec.LSN = startLSN + uint64(off)
		res.Records = append(res.Records, rec)
		off += frameHdrSize + plen
		res.EndLSN = startLSN + uint64(off)
	}
}

// encodePayload serializes a record without its LSN — the LSN is implied by
// the record's position in the file.
func encodePayload(rec Record) []byte {
	var tmp [binary.MaxVarintLen64]byte
	buf := make([]byte, 0, 32+len(rec.Table)+len(rec.Before)+len(rec.After))
	buf = append(buf, byte(rec.Kind))
	var flags byte
	if rec.CLR {
		flags |= 1
	}
	buf = append(buf, flags)
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putUvarint(uint64(rec.Txn))
	putUvarint(rec.UndoOf)
	putUvarint(uint64(len(rec.Table)))
	buf = append(buf, rec.Table...)
	putUvarint(uint64(rec.RID.Page))
	putUvarint(uint64(rec.RID.Slot))
	putUvarint(uint64(len(rec.Before)))
	buf = append(buf, rec.Before...)
	putUvarint(uint64(len(rec.After)))
	buf = append(buf, rec.After...)
	return buf
}

func decodePayload(b []byte) (Record, error) {
	var rec Record
	if len(b) < 2 {
		return rec, errors.New("txn: short wal payload")
	}
	rec.Kind = RecordKind(b[0])
	rec.CLR = b[1]&1 != 0
	b = b[2:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, errors.New("txn: bad varint in wal payload")
		}
		b = b[n:]
		return v, nil
	}
	nextBytes := func() ([]byte, error) {
		n, err := next()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(b)) {
			return nil, errors.New("txn: truncated field in wal payload")
		}
		out := b[:n:n]
		b = b[n:]
		if n == 0 {
			return nil, nil
		}
		return out, nil
	}
	v, err := next()
	if err != nil {
		return rec, err
	}
	rec.Txn = ID(v)
	if rec.UndoOf, err = next(); err != nil {
		return rec, err
	}
	table, err := nextBytes()
	if err != nil {
		return rec, err
	}
	rec.Table = string(table)
	page, err := next()
	if err != nil {
		return rec, err
	}
	slot, err := next()
	if err != nil {
		return rec, err
	}
	rec.RID = storage.RID{Page: storage.PageID(page), Slot: uint16(slot)}
	if rec.Before, err = nextBytes(); err != nil {
		return rec, err
	}
	if rec.After, err = nextBytes(); err != nil {
		return rec, err
	}
	return rec, nil
}

// Append adds rec to the log buffer and returns its LSN. The record is NOT
// durable until a flush passes it; use WaitDurable (or Commit) for that.
func (w *DurableWAL) Append(rec Record) (uint64, error) {
	payload := encodePayload(rec)
	frame := make([]byte, frameHdrSize+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHdrSize:], payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.poison != nil {
		return 0, w.poison
	}
	if w.closed {
		return 0, ErrWALClosed
	}
	lsn := w.endLSN
	w.endLSN += uint64(len(frame))
	w.buf = append(w.buf, frame...)
	if rec.Kind == RecCommit {
		w.pendingCommits++
		w.commits.Add(1)
	}
	w.appends.Add(1)
	return lsn, nil
}

// Commit appends the commit record and blocks until it is on stable
// storage: per-commit fsync when configured, otherwise parking on the group
// flusher.
func (w *DurableWAL) Commit(rec Record) error {
	lsn, err := w.Append(rec)
	if err != nil {
		return err
	}
	if w.syncPerCommit {
		// Flush on the committer's own goroutine, forcing an fsync even when
		// a concurrent flush already covered our record — the per-commit
		// baseline must pay one fsync per commit or the benchmark comparison
		// is a lie.
		if err := w.flushOnce(true); err != nil {
			return err
		}
	}
	return w.WaitDurable(lsn)
}

// WaitDurable blocks until every log byte up to and including the record at
// lsn is flushed, waking the flusher as needed. lsn 0 (no LSN) and LSNs past
// the log's end (possible for page stamps that outlived a torn tail) return
// immediately — there is nothing to wait for.
func (w *DurableWAL) WaitDurable(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn >= w.endLSN {
		return nil
	}
	for w.flushedLSN <= lsn {
		if w.poison != nil {
			return w.poison
		}
		if w.closed {
			return ErrWALClosed
		}
		w.kick()
		w.cond.Wait()
	}
	return nil
}

// Flush forces everything appended so far to stable storage.
func (w *DurableWAL) Flush() error { return w.flushOnce(false) }

// kick wakes the flusher without blocking; callers hold w.mu.
func (w *DurableWAL) kick() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// flusher is the group-commit loop: each wakeup flushes whatever batch
// accumulated while the previous flush's fsync was in flight.
func (w *DurableWAL) flusher() {
	for {
		select {
		case <-w.done:
			return
		case <-w.wake:
			// Error already recorded as poison and broadcast to waiters;
			// the loop keeps draining wakeups so kick never blocks.
			_ = w.flushOnce(false)
		}
	}
}

// flushOnce writes and fsyncs the pending buffer. force issues the fsync
// even with nothing buffered (per-commit-fsync accounting). It returns the
// poison error, if any, so synchronous callers fail loudly.
func (w *DurableWAL) flushOnce(force bool) error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	if w.poison != nil {
		err := w.poison
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	buf := w.buf
	w.buf = nil
	off := w.fileOff
	target := w.endLSN
	nCommits := w.pendingCommits
	w.pendingCommits = 0
	f := w.f
	w.mu.Unlock()

	if len(buf) == 0 && !force {
		return nil
	}
	var err error
	if len(buf) > 0 {
		_, err = f.WriteAt(buf, off)
	}
	if err == nil {
		err = f.Sync()
	}

	w.mu.Lock()
	if err != nil {
		// Poison: the on-disk state past flushedLSN is unknown. Nothing
		// beyond it will ever be acknowledged.
		w.poison = fmt.Errorf("txn: wal flush failed, log poisoned: %w", err)
		err = w.poison
	} else {
		w.fileOff = off + int64(len(buf))
		w.flushedLSN = target
		w.flushes.Add(1)
		w.syncs.Add(1)
		w.syncedBytes.Add(uint64(len(buf)))
		if nCommits > 0 {
			w.groups.Add(1)
			w.groupSum.Add(uint64(nCommits))
			for {
				old := w.groupMax.Load()
				if uint64(nCommits) <= old || w.groupMax.CompareAndSwap(old, uint64(nCommits)) {
					break
				}
			}
		}
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}

// Rotate checkpoints the log into a fresh file: the new file's only content
// is ckpt (a RecCheckpoint), its start LSN is the old end LSN, and it
// replaces the old file atomically (write temp, fsync, rename, fsync dir).
// Callers must have flushed all dirty pages first — rotation discards the
// old records — and must hold every appender off from the snapshot ckpt
// carries until Rotate returns.
func (w *DurableWAL) Rotate(ckpt Record) error {
	if err := w.flushOnce(false); err != nil {
		return err
	}
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	if w.poison != nil {
		err := w.poison
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	if len(w.buf) != 0 {
		// An append raced the checkpoint: its record is not in ckpt's
		// snapshot and would go with the old file. Fail closed.
		w.poison = errors.New("txn: append during wal rotation, log poisoned")
		err := w.poison
		w.cond.Broadcast()
		w.mu.Unlock()
		return err
	}
	newStart := w.endLSN
	w.mu.Unlock()

	payload := encodePayload(ckpt)
	frame := make([]byte, frameHdrSize+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHdrSize:], payload)

	tmp := w.path + ".tmp"
	nf, err := w.fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("txn: rotate wal: %w", err)
	}
	fail := func(e error) error {
		nf.Close()
		w.fsys.Remove(tmp)
		return fmt.Errorf("txn: rotate wal: %w", e)
	}
	if err := w.writeHeader(nf, newStart); err != nil {
		return fail(err)
	}
	if _, err := nf.WriteAt(frame, walHeaderSize); err != nil {
		return fail(err)
	}
	if err := nf.Sync(); err != nil {
		return fail(err)
	}
	if err := w.fsys.Rename(tmp, w.path); err != nil {
		return fail(err)
	}
	if err := w.fsys.SyncDir(filepath.Dir(w.path)); err != nil {
		// The rename happened; an unsyncable directory leaves which file
		// survives a crash ambiguous. Fail closed.
		w.mu.Lock()
		w.poison = fmt.Errorf("txn: wal rotation dir sync failed, log poisoned: %w", err)
		err = w.poison
		w.cond.Broadcast()
		w.mu.Unlock()
		nf.Close()
		return err
	}

	w.mu.Lock()
	old := w.f
	w.f = nf
	w.startLSN = newStart
	w.fileOff = walHeaderSize + int64(len(frame))
	w.endLSN = newStart + uint64(len(frame))
	w.rotatedLSN, w.flushedLSN = w.endLSN, w.endLSN
	w.checkpoints.Add(1)
	w.cond.Broadcast()
	w.mu.Unlock()
	old.Close()
	return nil
}

// Growth reports the log bytes appended since the last rotation (since
// open, before the first), flushed or not — the auto-checkpoint trigger
// reads it. The rotated checkpoint record does not count: an open writer's
// undo chain can make it alone outgrow any budget.
func (w *DurableWAL) Growth() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int64(w.endLSN - w.rotatedLSN)
}

// Poisoned returns the sticky flush error, or nil.
func (w *DurableWAL) Poisoned() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.poison
}

// Close flushes what it can and releases the file. Further appends fail.
func (w *DurableWAL) Close() error {
	err := w.flushOnce(false)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.done)
	f := w.f
	w.cond.Broadcast()
	w.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WALStats is a snapshot of the durable log's counters.
type WALStats struct {
	Appends     uint64 // records appended
	Flushes     uint64 // write+fsync batches
	Syncs       uint64 // fsyncs issued
	SyncedBytes uint64 // log bytes made durable
	Commits     uint64 // commit records
	Groups      uint64 // flushes that carried >=1 commit
	GroupSum    uint64 // total commits across those flushes
	GroupMax    uint64 // largest single group
	Checkpoints uint64 // checkpoints, each one a rotation
	EndLSN      uint64
	FlushedLSN  uint64
}

// Stats snapshots the log counters.
func (w *DurableWAL) Stats() WALStats {
	w.mu.Lock()
	end, flushed := w.endLSN, w.flushedLSN
	w.mu.Unlock()
	return WALStats{
		Appends:     w.appends.Load(),
		Flushes:     w.flushes.Load(),
		Syncs:       w.syncs.Load(),
		SyncedBytes: w.syncedBytes.Load(),
		Commits:     w.commits.Load(),
		Groups:      w.groups.Load(),
		GroupSum:    w.groupSum.Load(),
		GroupMax:    w.groupMax.Load(),
		Checkpoints: w.checkpoints.Load(),
		EndLSN:      end,
		FlushedLSN:  flushed,
	}
}
