package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the segmented durability substrate: an append-only log
// split across fixed-size segment files, written by a single group-commit
// goroutine that coalesces concurrent appends into one write and one fsync,
// bounded in replay length by state snapshots amortised against the log's
// growth, and compacted as snapshots retire old segments.
//
// On-disk layout (all little endian, one directory):
//
//	wal-<seq>.seg    segment: a run of [u32 len][u32 crc32(payload)][payload]
//	                 frames; a truncated last frame is a torn tail, a
//	                 checksum or length violation is corruption
//	snap-<seq>.snap  snapshot: ONE frame holding the owner-encoded state
//	                 covering every record in segments with seq' < seq;
//	                 written to snap-<seq>.tmp, fsynced, then renamed, so
//	                 a visible snapshot is always complete
//
// Recovery restores the newest decodable snapshot and replays only the
// segments at or past its seq — a bounded suffix, independent of how
// long the log has lived. A torn tail (the crash-during-append case) is
// truncated away on open; segments strictly below the newest snapshot
// are deleted by compaction once the snapshot is durable.

// Segment and snapshot file naming.
func segName(seq uint64) string  { return fmt.Sprintf("wal-%08d.seg", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }
func snapTmp(seq uint64) string  { return fmt.Sprintf("snap-%08d.tmp", seq) }

// parseSeq extracts the sequence number from a name with the given
// prefix and suffix; ok is false for foreign names.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(name)-len(suffix)] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

const headerSize = 8

// Frame wraps payload in the [u32 len][u32 crc][payload] record framing —
// the only framing in the repository. It is exported for codecs whose
// snapshot payload is itself a run of frames (the cross-shard log).
func Frame(payload []byte) []byte {
	return appendFrame(make([]byte, 0, headerSize+len(payload)), payload)
}

// appendFrame appends payload's frame to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// ScanFrames reads framed payloads from r, calling fn for each. It
// returns the byte length of the valid prefix: a torn tail (truncated
// header or payload — the crash-during-append case) stops the scan
// cleanly, while a checksum or length violation returns ErrCorrupt. A
// caller that needs all-or-nothing (a snapshot) compares the returned
// length with its input's.
func ScanFrames(r io.Reader, fn func(payload []byte) error) (int64, error) {
	var off int64
	header := make([]byte, headerSize)
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // torn header: stop
			}
			return off, err
		}
		payloadLen := binary.LittleEndian.Uint32(header[0:4])
		wantCRC := binary.LittleEndian.Uint32(header[4:8])
		if payloadLen > 1<<20 {
			return off, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, payloadLen)
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // torn payload: stop
			}
			return off, err
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return off, ErrCorrupt
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += int64(headerSize) + int64(payloadLen)
	}
}

// SnapshotCodec is the state the segmented log journals on behalf of its
// owner. The log's writer goroutine owns the folding: Apply is called
// once per record — during replay at open, and after each group commit —
// so EncodeSnapshot always observes state consistent with exactly the
// records sealed below the snapshot boundary.
type SnapshotCodec interface {
	// Apply folds one record payload into the state. Called from the
	// opening goroutine (replay) and the writer goroutine (after commit),
	// never concurrently with itself or EncodeSnapshot.
	Apply(payload []byte) error
	// EncodeSnapshot serializes the current state.
	EncodeSnapshot() []byte
	// RestoreSnapshot installs a previously encoded state. It must be
	// all-or-nothing: on error the state must be unchanged, so recovery
	// can fall back to an older snapshot.
	RestoreSnapshot(data []byte) error
}

// SegmentedOptions parameterizes a segmented log.
type SegmentedOptions struct {
	// FS is the directory the log lives in (required; DirFS in
	// production, MemFS/FaultFS in crash tests).
	FS FS
	// SegmentBytes is the rotation threshold: a record that would push
	// the active segment past it seals the segment first (default 1 MiB).
	SegmentBytes int
	// GroupCommit is the max-latency flush deadline: after the first
	// pending append the writer keeps coalescing arrivals for up to this
	// long before the group's single fsync. Zero flushes whatever has
	// queued by the time the writer gets to it (pure natural batching).
	GroupCommit time.Duration
	// SnapshotEvery is the least number of appended records between state
	// snapshots: one is written (and the segment rotated) once that many
	// records and at least as many bytes as the last snapshot weighed have
	// been appended since it, so encoding the state costs O(1) per record
	// however large the state; segments below the snapshot are compacted
	// away. Zero disables snapshots (replay covers the whole history).
	SnapshotEvery int
	// QueueDepth bounds the append queue (default 4096); a full queue
	// applies backpressure to appenders.
	QueueDepth int
	// Name labels this log's metrics ("log" label; default "wal") so
	// several logs (decisions, cross-shard) share one registry.
	Name string
	// Registry, if non-nil, receives the log's metrics: appends, fsyncs,
	// group-commit batch sizes, segments created/compacted, snapshots,
	// and recovery replay duration/records.
	Registry *obs.Registry
}

func (o SegmentedOptions) withDefaults() (SegmentedOptions, error) {
	if o.FS == nil {
		return o, errors.New("wal: SegmentedOptions.FS is required")
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4096
	}
	if o.Name == "" {
		o.Name = "wal"
	}
	return o, nil
}

// ReplayStats describes what recovery did at open.
type ReplayStats struct {
	// Records is how many records were replayed (the suffix past the
	// snapshot — bounded by the live state, SnapshotEvery and one group,
	// not by the log's lifetime).
	Records int
	// SnapshotSeq is the snapshot the replay started from (0: none).
	SnapshotSeq uint64
	// Duration is the wall time of the whole open-and-replay.
	Duration time.Duration
}

// SegStats is a point-in-time snapshot of the log's own counters (the
// same numbers the obs registry exposes, readable without one).
type SegStats struct {
	Appends           uint64
	Fsyncs            uint64
	Groups            uint64
	SegmentsCreated   uint64
	SegmentsCompacted uint64
	Snapshots         uint64
	Replay            ReplayStats
}

// ErrLogClosed rejects appends to a closed segmented log.
var ErrLogClosed = errors.New("wal: segmented log closed")

// ErrLogKilled is the error in-flight and later appends observe after
// Kill — the simulated kill -9.
var ErrLogKilled = errors.New("wal: segmented log killed")

type segAppend struct {
	payload []byte
	done    func(error)
}

// SegmentedLog is a segmented, group-committed, snapshotting log. Create
// with OpenSegmented; append concurrently from any goroutine; one writer
// goroutine owns the files.
type SegmentedLog struct {
	opts  SegmentedOptions
	codec SnapshotCodec

	queue      chan segAppend
	kill       chan struct{}
	writerDone chan struct{}

	sendMu sync.RWMutex // guards closed against queue sends
	closed bool

	failMu sync.Mutex
	fail   error // sticky poison: failed write/fsync kills the log

	// Writer-goroutine state (no locks needed).
	active     File
	activeSeq  uint64
	activeSize int64
	group      []byte // commit's frame buffer, reused
	snapSeq    uint64
	// sinceSnap and bytesSinceSnap are what this writer has appended since
	// it last snapshotted (or opened), in records and in framed bytes;
	// snapBytes is what the newest snapshot weighed.
	sinceSnap      int
	bytesSinceSnap int64
	snapBytes      int64

	appends   atomic.Uint64
	fsyncs    atomic.Uint64
	groups    atomic.Uint64
	segsMade  atomic.Uint64
	segsGone  atomic.Uint64
	snapsDone atomic.Uint64
	replay    ReplayStats

	met segMetrics
}

// segMetrics are the optional obs registry mirrors of the counters.
type segMetrics struct {
	appends   *obs.Counter
	fsyncs    *obs.Counter
	fsyncLat  *obs.Histogram
	batchSize *obs.Histogram
	segsMade  *obs.Counter
	segsGone  *obs.Counter
	snapshots *obs.Counter
}

func newSegMetrics(reg *obs.Registry, name string, replay ReplayStats) segMetrics {
	m := segMetrics{
		appends: reg.CounterVec("wal_appends_total",
			"Records appended to the segmented WAL.", "log").With(name),
		fsyncs: reg.CounterVec("wal_fsyncs_total",
			"fsync barriers issued by the segmented WAL; fsyncs/appends is the group-commit amortization.", "log").With(name),
		fsyncLat: reg.HistogramVec("wal_fsync_seconds",
			"Wall time of each group-commit fsync barrier.", obs.DefBuckets, "log").With(name),
		batchSize: reg.HistogramVec("wal_group_commit_batch_size",
			"Records coalesced per group-commit fsync.", obs.SizeBuckets, "log").With(name),
		segsMade: reg.CounterVec("wal_segments_created_total",
			"Segment files created.", "log").With(name),
		segsGone: reg.CounterVec("wal_segments_compacted_total",
			"Segment files deleted by snapshot-driven compaction.", "log").With(name),
		snapshots: reg.CounterVec("wal_snapshots_written_total",
			"State snapshots written.", "log").With(name),
	}
	reg.GaugeVec("wal_replay_records",
		"Records replayed at the last open (the bounded suffix past the snapshot).", "log").
		With(name).Set(float64(replay.Records))
	reg.GaugeVec("wal_replay_seconds",
		"Wall time of the last open-and-replay.", "log").
		With(name).Set(replay.Duration.Seconds())
	return m
}

// OpenSegmented opens (creating if needed) a segmented log: it restores
// the newest decodable snapshot into codec, replays the remaining
// segment suffix through codec.Apply, truncates any torn tail, and
// starts the group-commit writer.
func OpenSegmented(codec SnapshotCodec, opts SegmentedOptions) (*SegmentedLog, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s := &SegmentedLog{
		opts:       opts,
		codec:      codec,
		queue:      make(chan segAppend, opts.QueueDepth),
		kill:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}

	names, err := opts.FS.List()
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var segs, snaps []uint64
	for _, name := range names {
		if seq, ok := parseSeq(name, "wal-", ".seg"); ok {
			segs = append(segs, seq)
		} else if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		} else if _, ok := parseSeq(name, "snap-", ".tmp"); ok {
			// A crash mid-snapshot leaves a tmp; it was never renamed, so
			// it was never trusted. Clean it up, best effort.
			opts.FS.Remove(name) //nolint:errcheck
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	// Restore the newest decodable snapshot. Rename makes a visible
	// snapshot complete, but checksums guard rot: an undecodable one
	// falls back to the next older.
	for i := len(snaps) - 1; i >= 0; i-- {
		payload, err := readSnapshotFile(opts.FS, snapName(snaps[i]))
		if err != nil {
			continue
		}
		if err := codec.RestoreSnapshot(payload); err != nil {
			continue
		}
		s.snapSeq = snaps[i]
		s.snapBytes = int64(headerSize + len(payload))
		break
	}

	// Replay the suffix. Segments must be contiguous from the snapshot:
	// a gap means compaction outlived the data needed to rebuild state.
	records := 0
	var lastSeq uint64
	var lastValid int64
	expect := s.snapSeq // next required segment; 0 = no snapshot restored
	for _, seq := range segs {
		if seq < s.snapSeq {
			continue // compacted-away range still on disk; snapshot covers it
		}
		if expect == 0 {
			// Without a snapshot the history must be complete from the
			// first segment ever written.
			if seq != 1 {
				return nil, fmt.Errorf("%w: no snapshot and history starts at wal-%08d.seg", ErrCorrupt, seq)
			}
		} else if seq != expect {
			return nil, fmt.Errorf("%w: segment gap: want wal-%08d.seg, found wal-%08d.seg", ErrCorrupt, expect, seq)
		}
		f, err := opts.FS.Open(segName(seq))
		if err != nil {
			return nil, fmt.Errorf("wal: open segment %d: %w", seq, err)
		}
		valid, err := ScanFrames(f, func(payload []byte) error {
			records++
			return codec.Apply(payload)
		})
		f.Close() //nolint:errcheck // read-only
		if err != nil {
			return nil, fmt.Errorf("wal: segment %d: %w", seq, err)
		}
		size, err := opts.FS.Size(segName(seq))
		if err != nil {
			return nil, err
		}
		if valid < size && seq != segs[len(segs)-1] {
			// A torn tail is only legitimate in the newest segment (the
			// one being appended at the crash); earlier ones were sealed.
			return nil, fmt.Errorf("%w: torn tail mid-history in segment %d", ErrCorrupt, seq)
		}
		lastSeq, lastValid = seq, valid
		expect = seq + 1
	}

	// Open the active segment, truncating a torn tail first so new
	// records append to a clean valid prefix.
	if len(segs) > 0 && lastSeq >= s.snapSeq {
		size, err := opts.FS.Size(segName(lastSeq))
		if err != nil {
			return nil, err
		}
		if lastValid < size {
			if err := opts.FS.Truncate(segName(lastSeq), lastValid); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		if lastValid < int64(opts.SegmentBytes) {
			s.activeSeq, s.activeSize = lastSeq, lastValid
			s.active, err = opts.FS.OpenAppend(segName(lastSeq))
		} else {
			s.activeSeq, s.activeSize = lastSeq+1, 0
			s.active, err = opts.FS.Create(segName(lastSeq + 1))
			s.segsMade.Add(1)
		}
	} else {
		seq := s.snapSeq
		if seq == 0 {
			seq = 1
		}
		s.activeSeq, s.activeSize = seq, 0
		s.active, err = opts.FS.Create(segName(seq))
		s.segsMade.Add(1)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: open active segment: %w", err)
	}

	s.replay = ReplayStats{Records: records, SnapshotSeq: s.snapSeq, Duration: time.Since(start)}
	s.met = newSegMetrics(opts.Registry, opts.Name, s.replay)
	s.met.segsMade.Add(s.segsMade.Load())

	go s.writer()
	return s, nil
}

// readSnapshotFile reads and validates one snapshot file: exactly one
// frame, nothing else.
func readSnapshotFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read-only
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(raw) < headerSize {
		return nil, ErrCorrupt
	}
	payloadLen := binary.LittleEndian.Uint32(raw[0:4])
	if int(payloadLen) != len(raw)-headerSize {
		return nil, ErrCorrupt
	}
	payload := raw[headerSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[4:8]) {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// ReplayStats reports what recovery replayed at open.
func (s *SegmentedLog) ReplayStats() ReplayStats { return s.replay }

// FsyncLatency snapshots the cumulative fsync-duration histogram
// (seconds). Nil when the log was opened without a Registry. Watchdogs
// subtract successive snapshots to get a windowed latency distribution.
func (s *SegmentedLog) FsyncLatency() []obs.Bucket { return s.met.fsyncLat.Buckets() }

// Stats snapshots the log's counters.
func (s *SegmentedLog) Stats() SegStats {
	return SegStats{
		Appends:           s.appends.Load(),
		Fsyncs:            s.fsyncs.Load(),
		Groups:            s.groups.Load(),
		SegmentsCreated:   s.segsMade.Load(),
		SegmentsCompacted: s.segsGone.Load(),
		Snapshots:         s.snapsDone.Load(),
		Replay:            s.replay,
	}
}

// Err returns the sticky poison error, if the log has failed.
func (s *SegmentedLog) Err() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.fail
}

func (s *SegmentedLog) poison(err error) {
	s.failMu.Lock()
	if s.fail == nil {
		s.fail = err
	}
	s.failMu.Unlock()
}

// Append enqueues one record for the group-commit writer; done (if
// non-nil) fires exactly once, after the fsync covering the record
// succeeded (nil) or the group's flush failed (the error — every waiter
// in the group observes it). A full queue blocks (backpressure).
func (s *SegmentedLog) Append(payload []byte, done func(error)) error {
	if err := s.Err(); err != nil {
		return err
	}
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return ErrLogClosed
	}
	select {
	case s.queue <- segAppend{payload: payload, done: done}:
		return nil
	case <-s.kill:
		return ErrLogKilled
	}
}

// AppendSync appends and blocks until the record is durable (covered by
// a successful fsync) or the covering flush failed.
func (s *SegmentedLog) AppendSync(payload []byte) error {
	ch := make(chan error, 1)
	if err := s.Append(payload, func(err error) { ch <- err }); err != nil {
		return err
	}
	return <-ch
}

// Close drains pending appends (each still group-committed), seals the
// active segment, and stops the writer. Idempotent.
func (s *SegmentedLog) Close() error {
	s.sendMu.Lock()
	already := s.closed
	s.closed = true
	if !already {
		close(s.queue)
	}
	s.sendMu.Unlock()
	<-s.writerDone
	return s.Err()
}

// Kill abandons the log without flushing — the in-process stand-in for
// kill -9. Queued and in-flight appends observe ErrLogKilled; nothing
// further reaches the files; unsynced bytes are simply lost (the
// crash-recovery path's job to tolerate).
func (s *SegmentedLog) Kill() {
	s.poison(ErrLogKilled)
	s.sendMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.kill)
	}
	s.sendMu.Unlock()
	<-s.writerDone
}

// writer is the single goroutine owning the segment files: it gathers
// groups off the queue, writes them, issues ONE fsync per group, fires
// every waiter with that fsync's outcome, and takes snapshots as they
// fall due.
func (s *SegmentedLog) writer() {
	defer close(s.writerDone)
	for {
		var first segAppend
		select {
		case a, ok := <-s.queue:
			if !ok {
				s.seal()
				return
			}
			first = a
		case <-s.kill:
			s.drainKilled()
			return
		}
		batch := s.gather(first)
		s.commit(batch)
		s.maybeSnapshot()
		select {
		case <-s.kill:
			s.drainKilled()
			return
		default:
		}
	}
}

// gather coalesces queued appends behind first into one group, waiting
// up to the GroupCommit deadline for more arrivals.
func (s *SegmentedLog) gather(first segAppend) []segAppend {
	batch := append(make([]segAppend, 0, 16), first)
	max := s.opts.QueueDepth
	if s.opts.GroupCommit > 0 {
		t := time.NewTimer(s.opts.GroupCommit)
		defer t.Stop()
		for len(batch) < max {
			select {
			case a, ok := <-s.queue:
				if !ok {
					return batch
				}
				batch = append(batch, a)
			case <-t.C:
				return batch
			case <-s.kill:
				return batch
			}
		}
		return batch
	}
	for len(batch) < max {
		select {
		case a, ok := <-s.queue:
			if !ok {
				return batch
			}
			batch = append(batch, a)
		default:
			return batch
		}
	}
	return batch
}

// commit writes one group — one Write, unless a rotation falls inside it —
// and issues its single fsync. The fsync's error — or a write error —
// reaches EVERY waiter in the group, and poisons the log (the durable
// suffix is unknown after a failed flush).
func (s *SegmentedLog) commit(batch []segAppend) {
	err := s.Err()
	if err == nil {
		err = s.writeGroup(batch)
	}
	if err == nil {
		fsyncStart := time.Now()
		if err = s.active.Sync(); err == nil {
			s.met.fsyncLat.Observe(time.Since(fsyncStart).Seconds())
			s.fsyncs.Add(1)
			s.met.fsyncs.Inc()
		} else {
			err = fmt.Errorf("wal: group fsync: %w", err)
		}
	}
	if err != nil {
		s.poison(err)
		err = s.Err()
	} else {
		for i := range batch {
			if aerr := s.codec.Apply(batch[i].payload); aerr != nil {
				s.poison(fmt.Errorf("wal: apply own record: %w", aerr))
				break
			}
		}
		s.sinceSnap += len(batch)
		s.groups.Add(1)
		s.met.batchSize.Observe(float64(len(batch)))
	}
	for i := range batch {
		if batch[i].done != nil {
			batch[i].done(err)
		}
	}
}

// writeGroup frames the group's records into one buffer and writes it. A
// record that would overflow the active segment flushes what is buffered
// and rotates first, so a frame never straddles two segments.
func (s *SegmentedLog) writeGroup(batch []segAppend) error {
	buf, records := s.group[:0], 0
	for i := range batch {
		frame := int64(headerSize + len(batch[i].payload))
		if held := s.activeSize + int64(len(buf)); held > 0 && held+frame > int64(s.opts.SegmentBytes) {
			if err := s.write(buf, records); err != nil {
				return err
			}
			if err := s.rotate(); err != nil {
				return err
			}
			buf, records = buf[:0], 0
		}
		buf = appendFrame(buf, batch[i].payload)
		records++
	}
	s.group = buf[:0]
	return s.write(buf, records)
}

// write appends buf, which frames that many records, to the active segment.
func (s *SegmentedLog) write(buf []byte, records int) error {
	if len(buf) == 0 {
		return nil
	}
	if _, err := s.active.Write(buf); err != nil {
		return fmt.Errorf("wal: segment write: %w", err)
	}
	s.activeSize += int64(len(buf))
	s.bytesSinceSnap += int64(len(buf))
	s.appends.Add(uint64(records))
	s.met.appends.Add(uint64(records))
	return nil
}

// rotate seals the active segment (fsync + close) and opens the next.
func (s *SegmentedLog) rotate() error {
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("wal: seal segment %d: %w", s.activeSeq, err)
	}
	s.fsyncs.Add(1)
	s.met.fsyncs.Inc()
	if err := s.active.Close(); err != nil {
		return err
	}
	next, err := s.opts.FS.Create(segName(s.activeSeq + 1))
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", s.activeSeq+1, err)
	}
	s.activeSeq++
	s.activeSize = 0
	s.active = next
	s.segsMade.Add(1)
	s.met.segsMade.Inc()
	return nil
}

// maybeSnapshot writes a snapshot when one is due — SnapshotEvery records
// and as many bytes as the last snapshot weighed appended since it, so the
// next snapshot is paid for by the log growing as much again as the last:
// seal the active segment (so the snapshot boundary is a segment boundary),
// write the state to a tmp, fsync, rename — then compact the segments
// the snapshot covers. A failed snapshot write is retried at the next
// cadence; it never poisons the log (appends are unaffected).
func (s *SegmentedLog) maybeSnapshot() {
	if s.opts.SnapshotEvery <= 0 || s.sinceSnap < s.opts.SnapshotEvery ||
		s.bytesSinceSnap < s.snapBytes || s.Err() != nil {
		return
	}
	s.sinceSnap, s.bytesSinceSnap = 0, 0
	if err := s.rotate(); err != nil {
		s.poison(err)
		return
	}
	seq := s.activeSeq // covers all records in segments < seq
	framed := Frame(s.codec.EncodeSnapshot())
	tmp := snapTmp(seq)
	ok := func() bool {
		f, err := s.opts.FS.Create(tmp)
		if err != nil {
			return false
		}
		if _, err := f.Write(framed); err != nil {
			f.Close() //nolint:errcheck
			return false
		}
		if err := f.Sync(); err != nil {
			f.Close() //nolint:errcheck
			return false
		}
		if err := f.Close(); err != nil {
			return false
		}
		return s.opts.FS.Rename(tmp, snapName(seq)) == nil
	}()
	if !ok {
		s.opts.FS.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return
	}
	s.snapSeq = seq
	s.snapBytes = int64(len(framed))
	s.snapsDone.Add(1)
	s.met.snapshots.Inc()
	s.compact()
}

// compact removes segments fully covered by the newest snapshot, and
// snapshots older than it. Tombstone retirement drives this end to end:
// retire records shrink the snapshot state, and each new snapshot lets
// the whole covered segment range go.
func (s *SegmentedLog) compact() {
	names, err := s.opts.FS.List()
	if err != nil {
		return
	}
	for _, name := range names {
		if seq, ok := parseSeq(name, "wal-", ".seg"); ok && seq < s.snapSeq {
			if s.opts.FS.Remove(name) == nil {
				s.segsGone.Add(1)
				s.met.segsGone.Inc()
			}
		} else if seq, ok := parseSeq(name, "snap-", ".snap"); ok && seq < s.snapSeq {
			s.opts.FS.Remove(name) //nolint:errcheck // best-effort
		}
	}
}

// seal flushes and closes the active segment at Close.
func (s *SegmentedLog) seal() {
	if s.Err() != nil {
		s.active.Close() //nolint:errcheck // already poisoned
		return
	}
	if err := s.active.Sync(); err != nil {
		s.poison(fmt.Errorf("wal: seal on close: %w", err))
	} else {
		s.fsyncs.Add(1)
		s.met.fsyncs.Inc()
	}
	if err := s.active.Close(); err != nil {
		s.poison(err)
	}
}

// drainKilled fails every queued append after Kill.
func (s *SegmentedLog) drainKilled() {
	for {
		select {
		case a, ok := <-s.queue:
			if !ok {
				return
			}
			if a.done != nil {
				a.done(ErrLogKilled)
			}
		default:
			return
		}
	}
}
