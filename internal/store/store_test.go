package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"schema_version":2,"kernel":"MVT"}` + "\n")
	if err := s.Put("k1", body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q ok=%v, want stored body", got, ok)
	}
	if _, ok := s.Get("absent"); ok {
		t.Error("absent key reported present")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 entry / 1 hit / 1 miss / 1 put", st)
	}
}

// encode is the definition of an entry file, kept from when Put built
// the whole file in memory: magic, version, key length, payload length,
// payload SHA-256, key, payload.
func encode(key string, payload []byte) []byte {
	out := make([]byte, 0, headerFixed+len(key)+len(payload))
	out = append(out, magic[:]...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], formatVersion)
	out = append(out, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(key)))
	out = append(out, u32[:]...)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(payload)))
	out = append(out, u64[:]...)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	out = append(out, key...)
	out = append(out, payload...)
	return out
}

// TestPutWritesTheEntryLayout: Put streams header and payload to the
// file separately; what lands on disk must still be the one layout, for
// an empty payload too, and must verify.
func TestPutWritesTheEntryLayout(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for key, payload := range map[string][]byte{
		"k":            []byte("payload"),
		"empty":        {},
		"a/longer:key": bytes.Repeat([]byte("0123456789abcdef"), 1<<12),
	} {
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(s.EntryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, encode(key, payload)) {
			t.Errorf("%q: entry file is not header+key+payload (%d bytes)", key, len(file))
		}
		if err := s.Check(key); err != nil {
			t.Errorf("%q: Check: %v", key, err)
		}
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Errorf("%q: Get ok=%v, %d bytes", key, ok, len(got))
		}
	}
}

// TestRestartReplay pins the store's reason to exist: a new Store over
// the same directory replays byte-identical payloads.
func TestRestartReplay(t *testing.T) {
	dir := t.TempDir()
	body := []byte("canonical response bytes")
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("key", body); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir) // "restart"
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("key")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("replay after reopen = %q ok=%v, want original bytes", got, ok)
	}
}

// TestCorruptEviction: a flipped payload byte is detected, never
// served, and the entry file is deleted.
func TestCorruptEviction(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key", []byte("payload bytes")); err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptForTest("key"); err != nil {
		t.Fatal(err)
	}
	if err := s.Check("key"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Check = %v, want ErrCorrupt", err)
	}
	if _, ok := s.Get("key"); ok {
		t.Fatal("corrupt entry was served")
	}
	if _, err := os.Stat(s.EntryPath("key")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt entry not evicted: stat err = %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
}

// TestHeaderTampering: every header field is covered by the check —
// magic, version, key, and truncation all read as corrupt.
func TestHeaderTampering(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(s.EntryPath("key"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"key mismatch", func(b []byte) []byte { b[headerFixed] ^= 0xFF; return b }},
	}
	for _, tc := range cases {
		mutated := tc.mutate(append([]byte(nil), pristine...))
		if err := os.WriteFile(s.EntryPath("key"), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("key"); ok {
			t.Errorf("%s: tampered entry served", tc.name)
		}
		// Get evicted it; restore for the next case.
		if err := os.WriteFile(s.EntryPath("key"), pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := s.Get("key"); !ok || !bytes.Equal(got, []byte("payload")) {
		t.Error("pristine entry no longer readable after tamper loop")
	}
}

// TestKeyCharsetSafety: keys with path separators, colons, and unicode
// all map to safe filenames under the store root.
func TestKeyCharsetSafety(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"explore:abc", "../escape", "a/b/c", "sch\x00ema", "ключ"}
	for _, k := range keys {
		if err := s.Put(k, []byte(k+" body")); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
		rel, err := filepath.Rel(s.Dir(), s.EntryPath(k))
		if err != nil || rel == ".." || filepath.IsAbs(rel) || len(rel) < 3 || rel[:2] == ".." {
			t.Errorf("EntryPath(%q) escapes the store root: %q", k, s.EntryPath(k))
		}
	}
	for _, k := range keys {
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, []byte(k+" body")) {
			t.Errorf("Get(%q) = %q ok=%v", k, got, ok)
		}
	}
}

// TestConcurrentPutGet races writers and readers over a small key
// space; every successful Get must return a complete, verified body.
func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i%5)
				body := []byte(fmt.Sprintf("body for %s", key))
				if w%2 == 0 {
					if err := s.Put(key, body); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				} else if got, ok := s.Get(key); ok && !bytes.Equal(got, body) {
					t.Errorf("Get(%s) returned wrong bytes %q", key, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Errorf("concurrent use produced %d corrupt reads", st.Corrupt)
	}
}

// FuzzStoreDecode: any bytes looked up under any key either decode to a
// payload whose entry re-encodes to exactly those bytes, or fail with an
// error wrapping ErrCorrupt — never a panic, never a payload the bytes
// do not vouch for. The seeds are a valid entry, a truncated header, a
// key length past the end of the entry and a flipped digest byte.
func FuzzStoreDecode(f *testing.F) {
	const key = "MVT|4x4|himap"
	payload := []byte(`{"schema_version":2,"kernel":"MVT"}`)
	valid := append(appendHeader(nil, key, payload), payload...)
	f.Add(key, valid)
	f.Add(key, valid[:headerFixed-1])
	longKey := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(longKey[8:12], uint32(len(valid)))
	f.Add(key, longKey)
	flipped := bytes.Clone(valid)
	flipped[20] ^= 0x01
	f.Add(key, flipped)

	f.Fuzz(func(t *testing.T, key string, data []byte) {
		got, err := decode(key, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if again := append(appendHeader(nil, key, got), got...); !bytes.Equal(again, data) {
			t.Fatalf("decoded payload %q re-encodes to\n %x\nnot the entry\n %x", got, again, data)
		}
	})
}
