package cluster

import (
	"sort"
	"strconv"
)

// DefaultRingReplicas is the virtual-node count per worker. 1024 points
// per worker keeps each worker's hash-space share within a few percent of
// ideal (arc-length coefficient of variation ~ 1/sqrt(replicas)), so the
// ±20% spread bound the tests enforce has an order of magnitude of
// headroom. At the 64-worker high end that is 65536 ring points — a 1 MB
// sorted slice and a 16-deep binary search per lookup.
const DefaultRingReplicas = 1024

// Ring is a consistent-hash ring: each node projects `replicas` virtual
// points onto the 64-bit hash circle, and a key is owned by the node of
// the first point at or clockwise of the key's hash. Membership changes
// remap only the arcs adjacent to the changed node's points — about 1/N
// of the keyspace for one node among N.
//
// Ring is not goroutine-safe; the Registry serializes access.
type Ring struct {
	replicas int
	nodes    map[string]struct{}
	points   []ringPoint // sorted by (hash, node) once dirty is cleared
	dirty    bool        // points appended since the last sort
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing creates an empty ring; replicas <= 0 selects
// DefaultRingReplicas.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	return &Ring{replicas: replicas, nodes: map[string]struct{}{}}
}

// pointHash places virtual point i of a node: FNV-1a over "node#i" with
// the same splitmix64 finalizer as RingKey, so node points and key
// hashes mix into one well-scrambled circle.
func pointHash(node string, i int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for j := 0; j < len(node); j++ {
		h ^= uint64(node[j])
		h *= prime64
	}
	h ^= uint64('#')
	h *= prime64
	for _, c := range []byte(strconv.Itoa(i)) {
		h ^= uint64(c)
		h *= prime64
	}
	return mix64(h)
}

// Add inserts a node's virtual points. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{pointHash(node, i), node})
	}
	// Sorting is deferred to the next lookup so a batch of joins costs
	// one sort instead of one per node.
	r.dirty = true
}

// settle sorts the point list if membership changed since the last
// lookup. Ties are broken by name so ownership is insertion-order
// independent.
func (r *Ring) settle() {
	if !r.dirty {
		return
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	r.dirty = false
}

// Remove deletes a node's virtual points. Removing an absent node is a
// no-op.
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the node owning a ring position, walking clockwise to
// the first virtual point at or after key (wrapping at the top).
func (r *Ring) Owner(key uint64) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	r.settle()
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= key
	})
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node, true
}

// OwnerOf returns the node owning a canonical job id.
func (r *Ring) OwnerOf(id string) (string, bool) {
	return r.Owner(RingKey(id))
}
