package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Peer-forwarding headers. forwardedHeader marks a relayed request so
// the owner always serves it locally — a request is forwarded at most
// once, no matter how stale a replica's ring is. peerHeader on a
// response names the replica that actually served it.
const (
	forwardedHeader = "X-Himap-Forwarded"
	peerHeader      = "X-Himap-Peer"
)

// vnodesPerPeer spreads each replica over the hash circle so ownership
// stays roughly uniform for small clusters.
const vnodesPerPeer = 64

// ring is a consistent-hash circle over the cluster's peer URLs. Every
// replica builds the identical ring from the identical Peers list, so
// all replicas agree on which one owns a cache key without any
// coordination. Ownership moves only for keys whose arc changes when a
// peer joins or leaves.
type ring struct {
	self   string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer string
}

// newRing validates the cluster shape and builds the circle. Peers must
// be non-empty base URLs without trailing slashes; Self must appear in
// Peers (a replica has to know which entry is itself, or it would
// forward requests to its own listener).
func newRing(peers []string, self string) (*ring, error) {
	if self == "" {
		return nil, fmt.Errorf("shard: Peers set but Self empty")
	}
	seen := map[string]bool{}
	selfFound := false
	r := &ring{self: self}
	for _, p := range peers {
		if p == "" || strings.HasSuffix(p, "/") {
			return nil, fmt.Errorf("shard: peer %q must be a base URL without trailing slash", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("shard: duplicate peer %q", p)
		}
		seen[p] = true
		if p == self {
			selfFound = true
		}
		for v := 0; v < vnodesPerPeer; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", p, v)))
			r.points = append(r.points, ringPoint{
				hash: binary.BigEndian.Uint64(sum[:8]),
				peer: p,
			})
		}
	}
	if !selfFound {
		return nil, fmt.Errorf("shard: Self %q not in Peers %v", self, peers)
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// owner returns the peer URL owning key: the first ring point at or
// after the key's hash, wrapping at the top of the circle.
func (r *ring) owner(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := binary.BigEndian.Uint64(sum[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer
}

// ownsLocally reports whether this replica should resolve key itself:
// it is the ring owner, or the request was already forwarded once.
func (r *ring) ownsLocally(key string, req *http.Request) bool {
	if req.Header.Get(forwardedHeader) != "" {
		return true
	}
	return r.owner(key) == r.self
}

// Owner exposes the ring's ownership decision (empty when the server
// runs unsharded) so tests and load tools can predict routing.
func (s *Server) Owner(key string) string {
	if s.ring == nil {
		return ""
	}
	return s.ring.owner(key)
}

// forward relays a compile request to its shard owner and streams the
// peer's response through, tagging it with the serving peer's URL. It
// returns false — without writing anything — when the owner cannot
// answer (connection refused, transport error, or a 5xx), so the caller
// falls back to local compute: a dead peer degrades the cluster to
// per-replica caching, it never fails a request.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, wire *CompileRequestWire, key string) bool {
	owner := s.ring.owner(key)
	body, err := json.Marshal(wire)
	if err != nil {
		return false
	}
	// The relay deadline covers the peer's whole compile plus headroom;
	// the request's own context still cancels the relay if the client
	// goes away.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(wire.Options.TimeoutMS)+10*time.Second)
	defer cancel()
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(forwardedHeader, s.ring.self)
	resp, err := s.client.Do(preq)
	if err != nil {
		s.metrics.forwardFallbacks.Add(1)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, resp.Body)
		s.metrics.forwardFallbacks.Add(1)
		return false
	}
	s.metrics.forwarded.Add(1)
	w.Header().Set("Content-Type", "application/json")
	if cs := resp.Header.Get("X-Himap-Cache"); cs != "" {
		w.Header().Set("X-Himap-Cache", cs)
	}
	w.Header().Set(peerHeader, owner)
	if resp.ContentLength >= 0 { // as writeBody sets it on a local answer
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}
