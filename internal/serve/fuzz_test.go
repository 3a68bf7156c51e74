package serve

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRequest feeds untrusted bytes to the strict decoder behind
// both request types. It must never panic, every refusal must be
// the typed ErrBadRequest, and a compile request it accepts must
// survive BuildRequest (typed refusals only) and CacheKey. The seed
// corpus — the golden requests, an inline kernel specification and the
// rejection table — runs as a normal test.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(inlineSpecRequest))
	for _, tc := range goldenCases {
		f.Add([]byte(tc.body))
	}
	for _, tc := range strictDecodeCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeBatchRequest(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("batch decode failure is not ErrBadRequest: %v", err)
		}
		wire, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode failure is not ErrBadRequest: %v", err)
			}
			return
		}
		if _, err := BuildRequest(wire, Config{}); err != nil && !errors.Is(err, ErrBadRequest) && !errors.Is(err, ErrUnknownKernel) {
			t.Fatalf("BuildRequest refusal is untyped: %v", err)
		}
		if key := CacheKey(wire); len(key) != 64 {
			t.Fatalf("CacheKey = %q, want 64 hex digits", key)
		}
	})
}
