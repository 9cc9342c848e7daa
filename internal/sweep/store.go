package sweep

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store is the thread-safe content-addressed result store: serialized
// rows keyed by Key(desc, seed), and the daemon's rendered artifact
// sets, one per distinct campaign, keyed the same way. It never evicts
// — both are bounded by the grids a daemon actually serves — and it
// counts hits and misses (of every lookup, rows and artifact sets
// alike) so a service can prove a repeat submission was answered
// entirely from the store. Opened over a directory
// (OpenStore) it persists every row as a segmented, checksummed
// append-only log so results survive a process kill; with no directory
// (NewCache) it is the same map in memory only: no files, never
// degraded, Health().Dir == "". The daemon keeps its campaign journal
// in a second disk-backed Store, keyed by campaign id.
//
// Durability model. Every Put appends one framed record to the active
// segment with an unbuffered os.File write — the bytes reach the
// kernel page cache before Put returns, so a SIGKILL (the failure this
// layer is built for) loses nothing already Put; only an OS crash can
// lose the tail, and losing cached rows is always safe because every
// row is recomputable from its key's (config, seed). No fsync on the
// hot path: a caller whose record must also survive an OS crash calls
// Sync after its Put (the daemon's campaign journal, once per accepted
// submission).
//
// Degradation model, in order of severity:
//
//   - A record that fails its CRC is skipped at open — exactly that
//     record, using its stated lengths to resync — and counted in
//     Health().CorruptRecords. Never a crash.
//   - A truncated tail (the classic kill-during-append shape) ends
//     that segment's scan, counted once. Opening always starts a fresh
//     segment, so a ragged tail is never appended to.
//   - A header too implausible to resync from (lengths beyond the
//     framing bounds) abandons the rest of that one segment, counted
//     once; later segments still load.
//   - A write error (disk full, permission) flips the store to
//     memory-only degraded mode: Put keeps serving from the map,
//     nothing crashes, and Health() reports Degraded with the first
//     error — surfaced by the daemon's /healthz.
//
// Record framing, little-endian:
//
//	[keyLen u32][valLen u32][crc32-IEEE(key||val) u32][key][val]
//
// Segments are seg-NNNNNN.log files; Put rotates to a new segment
// once the active one exceeds MaxSegmentBytes, bounding the blast
// radius of any single corrupt file.
type Store struct {
	dir    string
	maxSeg int64
	fault  func(op string) error // test-only write-fault injection

	mu             sync.Mutex
	entries        map[string][]byte
	hits, misses   int64
	loaded         int // records loaded at open
	corrupt        int // records skipped at open
	segIndex       int // numeric suffix of the segment Put appends to
	seg            *os.File
	segSize        int64
	segments       int // segment files on disk
	degraded       bool
	degradedReason string
}

// StoreOpts tunes OpenStore. The zero value is the production config.
type StoreOpts struct {
	// MaxSegmentBytes rotates the active segment once it exceeds this
	// many bytes (0 = 4 MiB).
	MaxSegmentBytes int64
	// WriteFault, when non-nil, intercepts every segment create,
	// append and sync; a returned error is handled exactly like the
	// disk failing. Fault injection for tests only.
	WriteFault func(op string) error
}

const (
	storeHeaderLen  = 12
	storeMaxKeyLen  = 1 << 16 // keys are "<64 hex>:<seed>", far below this
	storeMaxValLen  = 1 << 30
	defaultSegBytes = 4 << 20
)

// NewCache returns an empty memory-only store.
func NewCache() *Store { return &Store{entries: make(map[string][]byte)} }

// OpenStore opens (creating if needed) the store rooted at dir,
// loading every decodable record from every segment. Corrupt or
// truncated records degrade per the Store contract and never fail the
// open; only an unusable directory (cannot create, cannot list) does.
func OpenStore(dir string, opts StoreOpts) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	sort.Strings(names)
	s := &Store{
		dir:     dir,
		maxSeg:  opts.MaxSegmentBytes,
		fault:   opts.WriteFault,
		entries: make(map[string][]byte),
	}
	if s.maxSeg <= 0 {
		s.maxSeg = defaultSegBytes
	}
	last := 0
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.log", &idx); err != nil {
			continue // not ours; leave it alone
		}
		if idx > last {
			last = idx
		}
		s.segments++
		s.loadSegment(name)
	}
	// Always append to a fresh segment: a prior crash may have left a
	// ragged tail, and a clean boundary means one bad file can never
	// swallow records written after recovery. The file is created
	// lazily on first Put so restarts alone don't litter the dir.
	s.segIndex = last + 1
	return s, nil
}

// loadSegment replays one segment file into the entry map, skipping
// undecodable records per the degradation contract.
func (s *Store) loadSegment(path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		s.corrupt++
		return
	}
	off := 0
	for off < len(b) {
		rest := b[off:]
		if len(rest) < storeHeaderLen {
			s.corrupt++ // truncated header: kill landed mid-append
			return
		}
		keyLen := int(binary.LittleEndian.Uint32(rest[0:4]))
		valLen := int(binary.LittleEndian.Uint32(rest[4:8]))
		sum := binary.LittleEndian.Uint32(rest[8:12])
		if keyLen > storeMaxKeyLen || valLen > storeMaxValLen {
			s.corrupt++ // header garbage: no trustworthy resync point
			return
		}
		recLen := storeHeaderLen + keyLen + valLen
		if len(rest) < recLen {
			s.corrupt++ // truncated record
			return
		}
		key := rest[storeHeaderLen : storeHeaderLen+keyLen]
		val := rest[storeHeaderLen+keyLen : recLen]
		if crc32.ChecksumIEEE(rest[storeHeaderLen:recLen]) != sum {
			// Payload rot with an intact header: skip exactly this
			// record and keep going — lengths still frame the stream.
			s.corrupt++
			off += recLen
			continue
		}
		s.entries[string(key)] = append([]byte(nil), val...)
		s.loaded++
		off += recLen
	}
}

func encodeRecord(key string, val []byte) []byte {
	rec := make([]byte, storeHeaderLen+len(key)+len(val))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	copy(rec[storeHeaderLen:], key)
	copy(rec[storeHeaderLen+len(key):], val)
	binary.LittleEndian.PutUint32(rec[8:12], crc32.ChecksumIEEE(rec[storeHeaderLen:]))
	return rec
}

// Get returns a copy of the row stored under key, counting a hit or a
// miss. The caller owns the returned slice: scribbling on it cannot
// poison later hits for that key.
func (s *Store) Get(key string) ([]byte, bool) {
	b, ok := s.GetRef(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// GetRef is Get without the defensive copy: the returned bytes alias
// the store and MUST NOT be mutated or retained past immediate
// decoding. For the daemon's unmarshal-and-drop hot path.
func (s *Store) GetRef(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.entries[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return v, ok
}

// Put stores a row under key (last writer wins; by construction every
// writer for a key computed the same bytes) and, on a disk-backed
// store, appends it to the log. A disk error degrades the store to
// memory-only (see Store); it never propagates to the caller, because
// the in-memory copy is already authoritative for this process's
// lifetime.
func (s *Store) Put(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok && bytes.Equal(old, val) {
		return // same content-addressed bytes; no point re-logging
	}
	s.entries[key] = append([]byte(nil), val...)
	if s.dir == "" || s.degraded {
		return
	}
	s.degrade(s.append(encodeRecord(key, val)))
}

// Sync flushes the active segment to stable storage, so the records
// Put to it survive an OS crash as well as a process kill. A failure
// degrades the store like a write error. A memory-only or degraded
// store, or one not yet written to, has nothing to flush.
func (s *Store) Sync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil || s.degraded {
		return
	}
	var err error
	if s.fault != nil {
		err = s.fault("sync")
	}
	if err == nil {
		err = s.seg.Sync()
	}
	s.degrade(err)
}

// Range calls fn for every entry, in no particular order, under the
// store's lock: fn must not call the store, nor retain val.
func (s *Store) Range(fn func(key string, val []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.entries {
		fn(k, v)
	}
}

// degrade flips the store to memory-only on a disk error (nil: no
// change), with that error as the reason. Caller holds s.mu.
func (s *Store) degrade(err error) {
	if err != nil {
		s.degraded = true
		s.degradedReason = err.Error()
	}
}

// append writes one framed record to the active segment, rotating
// first if the segment is full. Caller holds s.mu.
func (s *Store) append(rec []byte) error {
	if s.seg != nil && s.segSize+int64(len(rec)) > s.maxSeg && s.segSize > 0 {
		s.seg.Close()
		s.seg = nil
		s.segIndex++
	}
	if s.seg == nil {
		if s.fault != nil {
			if err := s.fault("create"); err != nil {
				return err
			}
		}
		f, err := os.OpenFile(s.segPath(s.segIndex), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.seg = f
		s.segSize = 0
		s.segments++
	}
	if s.fault != nil {
		if err := s.fault("append"); err != nil {
			return err
		}
	}
	n, err := s.seg.Write(rec)
	s.segSize += int64(n)
	return err
}

func (s *Store) segPath(idx int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.log", idx))
}

// Stats reports the entry count and the hit/miss counters.
func (s *Store) Stats() (entries int, hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.hits, s.misses
}

// StoreHealth is the durability surface Stats can't carry, exported
// by the daemon's /healthz.
type StoreHealth struct {
	Dir            string `json:"dir"`
	Entries        int    `json:"entries"`
	Segments       int    `json:"segments"`
	LoadedRecords  int    `json:"loaded_records"`
	CorruptRecords int    `json:"corrupt_records"`
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// Health reports the store's durability state.
func (s *Store) Health() StoreHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreHealth{
		Dir:            s.dir,
		Entries:        len(s.entries),
		Segments:       s.segments,
		LoadedRecords:  s.loaded,
		CorruptRecords: s.corrupt,
		Degraded:       s.degraded,
		DegradedReason: s.degradedReason,
	}
}

// Close releases the active segment file handle. The store stays
// usable in memory; further Puts degrade (the log is gone).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	if !s.degraded {
		s.degraded = true
		s.degradedReason = "store closed"
	}
	return err
}
