// Package store is the disk-backed content-addressed result store
// beneath the himapd in-memory LRU: one file per cache key, written
// atomically (temp file + rename), integrity-checked on every read.
//
// Each entry file carries a fixed header — magic, format version, the
// key it was stored under, and the SHA-256 of the payload — followed by
// the payload bytes. Get recomputes the digest and compares the key, so
// a torn write, bit rot, or a key-collision bug is detected rather than
// served; corrupt entries are evicted (deleted) on detection, turning
// the read into a miss the compile path repairs. Because the stored
// payload is the canonical response body and the key is the request's
// content address, a restart replays byte-identical responses.
//
// The store never orders entries and never reads the clock: its visible
// behavior is a pure function of the Put/Get sequence, keeping
// it inside the repository's determinism contract.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// magic identifies an entry file; formatVersion gates incompatible
// layout changes (a mismatched version reads as corrupt → evicted).
var magic = [4]byte{'H', 'M', 'S', 'T'}

const formatVersion = 1

// headerFixed is the byte length of the fixed header prefix: magic,
// version (u32), key length (u32), payload length (u64), payload
// SHA-256. The key bytes follow, then the payload.
const headerFixed = 4 + 4 + 4 + 8 + sha256.Size

// ErrCorrupt reports an entry that failed its integrity check (bad
// magic, version, digest, or key mismatch). Get evicts such entries and
// reports a miss; the sentinel surfaces only through Check.
var ErrCorrupt = errors.New("store entry corrupt")

// Store is a content-addressed entry directory. Safe for concurrent
// use; two processes may share a directory (writes are atomic renames),
// though the byte accounting then tracks only this process's view.
type Store struct {
	dir string

	mu sync.Mutex // serializes same-key writers against readers of partial state

	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
	puts    atomic.Int64
}

// Open ensures dir exists and returns the store rooted there.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// EntryPath returns the file path an entry for key lives at, without
// touching the disk. Keys are arbitrary strings; the filename is the
// hex SHA-256 of the key (fan-out over the first byte), so any key
// charset is safe and path length is bounded.
func (s *Store) EntryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, name[:2], name[2:])
}

// appendHeader appends everything of an entry file that precedes the
// payload: the fixed header and the key.
func appendHeader(dst []byte, key string, payload []byte) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, formatVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	dst = append(dst, sum[:]...)
	return append(dst, key...)
}

// decode parses and verifies entry bytes against the key they were
// looked up under. Any mismatch is ErrCorrupt.
func decode(key string, data []byte) ([]byte, error) {
	if len(data) < headerFixed {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != formatVersion {
		return nil, fmt.Errorf("%w: format version %d (want %d)", ErrCorrupt, v, formatVersion)
	}
	keyLen := int(binary.LittleEndian.Uint32(data[8:12]))
	payLen := binary.LittleEndian.Uint64(data[12:20])
	var want [sha256.Size]byte
	copy(want[:], data[20:20+sha256.Size])
	rest := data[headerFixed:]
	if keyLen < 0 || keyLen > len(rest) {
		return nil, fmt.Errorf("%w: key length %d exceeds entry", ErrCorrupt, keyLen)
	}
	if string(rest[:keyLen]) != key {
		return nil, fmt.Errorf("%w: entry key mismatch", ErrCorrupt)
	}
	payload := rest[keyLen:]
	if uint64(len(payload)) != payLen {
		return nil, fmt.Errorf("%w: payload length %d, header says %d", ErrCorrupt, len(payload), payLen)
	}
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("%w: payload digest mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Get returns the verified payload stored under key. A missing entry is
// a plain miss; an entry failing its integrity check is evicted
// (deleted) and reported as a miss, so corruption can only ever cost a
// recompile, never serve wrong bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	data, err := os.ReadFile(s.EntryPath(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decode(key, data)
	if err != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		// Evict: a corrupt entry must not be served or re-verified on
		// every read. Removal failure is tolerable (next Get retries).
		os.Remove(s.EntryPath(key))
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Check verifies the entry under key without evicting: io errors pass
// through, integrity failures are ErrCorrupt. Diagnostic surface for
// tests and tooling.
func (s *Store) Check(key string) error {
	data, err := os.ReadFile(s.EntryPath(key))
	if err != nil {
		return err
	}
	_, err = decode(key, data)
	return err
}

// Put stores payload under key, atomically: the entry is staged in a
// temp file in the same directory and renamed over the final path, so
// readers (this process or another sharing the directory) only ever see
// a complete entry or none.
func (s *Store) Put(key string, payload []byte) error {
	path := s.EntryPath(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Header and payload go out as two writes: joining them first would
	// copy the whole payload to put 52 bytes and the key in front of it.
	_, err = tmp.Write(appendHeader(make([]byte, 0, headerFixed+len(key)), key, payload))
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	err = os.Rename(tmp.Name(), path)
	s.mu.Unlock()
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// Stats is the store's counter snapshot plus a directory walk for
// occupancy (entries, bytes). The walk skips temp files.
type Stats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Corrupt int64 `json:"corrupt"`
	Puts    int64 `json:"puts"`
}

// Stats walks the directory for occupancy and snapshots the counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Puts:    s.puts.Load(),
	}
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if len(d.Name()) > 0 && d.Name()[0] == '.' {
			return nil // staged temp file
		}
		if info, err := d.Info(); err == nil {
			st.Entries++
			st.Bytes += info.Size()
		}
		return nil
	})
	return st
}

// CorruptForTest overwrites one byte of the stored payload region of
// key's entry file, bypassing the header so the digest check must catch
// it. Test hook for the corruption-eviction path.
func (s *Store) CorruptForTest(key string) error {
	path := s.EntryPath(key)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if info.Size() <= headerFixed {
		return fmt.Errorf("entry too small to corrupt payload")
	}
	// Flip the last payload byte.
	var b [1]byte
	if _, err := f.ReadAt(b[:], info.Size()-1); err != nil && err != io.EOF {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b[:], info.Size()-1)
	return err
}
