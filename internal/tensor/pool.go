package tensor

import "sync"

// Pool recycles scratch slices across the hot per-dispatch paths (solver
// gradients and batches, codec delta scratch, decoded views, broadcast
// copies). Within one run every slice a pool serves is the same size, so
// it converges on a small set of buffers and steady-state allocation
// becomes O(model), independent of how many dispatches a run serves —
// the property the BenchmarkDeviceDispatch allocs/op gate holds.
//
// Storing a slice in a sync.Pool needs a heap box for its header, and a
// fresh box per Put would put one allocation right back on the path the
// pool exists to clear, so the boxes shuttle between two pools instead.
// The zero Pool is ready to use.
type Pool[T any] struct {
	vals, boxes sync.Pool // *[]T boxes with and without a slice
}

// Get returns a length-n slice with unspecified contents. Callers must
// fully overwrite it (or Zero it) before reading.
func (p *Pool[T]) Get(n int) []T {
	if b, ok := p.vals.Get().(*[]T); ok {
		v := *b
		*b = nil
		p.boxes.Put(b)
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([]T, n)
}

// Put returns a slice to the pool. The caller must not touch v
// afterwards. Put only slices with exclusive ownership — a slice that
// escaped into a retained structure (a Reply, a link's prev shadow) must
// be dropped to the garbage collector instead.
func (p *Pool[T]) Put(v []T) {
	if cap(v) == 0 {
		return
	}
	b, ok := p.boxes.Get().(*[]T)
	if !ok {
		b = new([]T)
	}
	*b = v[:cap(v)]
	p.vals.Put(b)
}

// The shared vector pools, one per width so f32 and f64 buffers never
// mix capacities.
var (
	vecs64 Pool[float64]
	vecs32 Pool[float32]
)

// Vecs returns the shared pool of F-width vectors.
func Vecs[F Float]() *Pool[F] {
	if p, ok := any(&vecs32).(*Pool[F]); ok {
		return p
	}
	return any(&vecs64).(*Pool[F])
}

// GetVec returns a pooled length-n float64 vector with unspecified
// contents; hand it back with PutVec when done.
func GetVec(n int) Vec { return vecs64.Get(n) }

// GetVec32 is GetVec for float32.
func GetVec32(n int) Vec32 { return vecs32.Get(n) }

// PutVec returns a vector to its width's pool (see Pool.Put).
func PutVec[F Float](v []F) { Vecs[F]().Put(v) }
