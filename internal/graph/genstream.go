package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Streaming generators for huge inputs. They emit edges as packed uint64
// keys whose numeric order is the canonical (U, V) order — already sorted,
// or sorted in parallel — and hand them to the shared StreamingBuilder
// assembly, so their graphs are bit-identical to what Builder produces for
// the same edge set and every consumer downstream (views, decompositions,
// the simulator) sees the same graph either way.

// splitmix64 advances *s and returns the next value of the splitmix64
// sequence. Each generator row gets its own arithmetic-progression start
// state, which is exactly the stream structure splitmix64 is designed for;
// per-row streams are what make the parallel generators produce identical
// output for every worker count.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rowFloat64 returns a uniform float64 in the open interval (0, 1).
func rowFloat64(s *uint64) float64 {
	return (float64(splitmix64(s)>>11) + 0.5) * (1.0 / (1 << 53))
}

func normWorkers(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return workers
}

// erRow calls emit(j) for every sampled neighbor j > i of row i, using
// geometric skip sampling: instead of flipping a coin per candidate pair, it
// jumps straight to the next success, so a row costs O(degree) draws rather
// than O(n). invLog is 1/log(1-p). The sequence depends only on (seed, i),
// never on which worker runs the row or in which pass.
func erRow(i, n int, invLog float64, seed int64, emit func(j int)) {
	state := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	j := i
	for {
		gap := math.Floor(math.Log(rowFloat64(&state)) * invLog)
		if gap >= float64(n-j) { // also catches +Inf
			return
		}
		j += 1 + int(gap)
		if j >= n {
			return
		}
		emit(j)
	}
}

// ErdosRenyiStream samples G(n, p) directly into CSR form. Unlike ErdosRenyi
// it costs O(m) draws instead of O(n^2) and never sorts: pass one counts
// each row's successes, pass two replays the same per-row random streams to
// write every row's packed edges at its final offset, already in canonical
// order. Rows are distributed over workers (0 means GOMAXPROCS), and because
// every row owns an independent stream keyed by (seed, row), the result is
// a deterministic function of (n, p, seed) alone — any worker count builds
// the same graph.
//
// The sampler consumes a different random stream than ErdosRenyi's rand.Rand,
// so the two functions produce different (equally distributed) graphs.
func ErdosRenyiStream(n int, p float64, seed int64, workers int) *Graph {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: n=%d outside the CSR int32 index range", n))
	}
	if p >= 1 {
		return Complete(n)
	}
	var keys []uint64
	if p > 0 && n >= 2 {
		workers = normWorkers(workers)
		invLog := 1 / math.Log1p(-p)
		rowStart := make([]int64, n+1) // row i counts into rowStart[i+1]
		parallelRows(n, workers, func(i int) {
			erRow(i, n, invLog, seed, func(int) { rowStart[i+1]++ })
		})
		for i := 0; i < n; i++ {
			rowStart[i+1] += rowStart[i]
		}
		if m := rowStart[n]; m > math.MaxInt32/2 {
			panic(fmt.Sprintf("graph: m=%d exceeds the CSR int32 index range", m))
		}
		keys = make([]uint64, rowStart[n])
		parallelRows(n, workers, func(i int) {
			k := rowStart[i]
			erRow(i, n, invLog, seed, func(j int) {
				keys[k] = packEdge(i, j)
				k++
			})
		})
	}
	g, err := fromSortedKeys(n, keys)
	if err != nil {
		panic(err) // unreachable: rows emit ascending in-range neighbors j > i
	}
	return g
}

// parallelRows runs fn(i) for every i in [0, n), fanning blocks of rows out
// to the given number of workers. fn must be safe to call concurrently for
// distinct i.
func parallelRows(n, workers int, fn func(i int)) {
	const block = 1024
	if workers <= 1 || n <= block {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, block)) - block
				if lo >= n {
					return
				}
				hi := min(lo+block, n)
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// fromPackedEdges assembles a CSR graph from packed canonical edges (u<<32|v
// with u < v). The slice is sorted in place (in parallel) and then streamed
// through the shared assembly, which rejects out-of-range, duplicate and
// non-canonical keys. The result is bit-identical to feeding the same edges
// through a Builder.
func fromPackedEdges(n int, packed []uint64, workers int) (*Graph, error) {
	parallelSortUint64(packed, normWorkers(workers))
	return fromSortedKeys(n, packed)
}

// parallelSortUint64 sorts s ascending: per-worker chunks sorted
// concurrently, then pairwise merged.
func parallelSortUint64(s []uint64, workers int) {
	if workers <= 1 || len(s) < 1<<16 {
		slices.Sort(s)
		return
	}
	per := (len(s) + workers - 1) / workers
	var chunks [][]uint64
	var wg sync.WaitGroup
	for lo := 0; lo < len(s); lo += per {
		hi := min(lo+per, len(s))
		c := s[lo:hi]
		chunks = append(chunks, c)
		wg.Add(1)
		go func(c []uint64) {
			defer wg.Done()
			slices.Sort(c)
		}(c)
	}
	wg.Wait()
	buf := make([]uint64, len(s))
	for len(chunks) > 1 {
		var mwg sync.WaitGroup
		merged := make([][]uint64, 0, (len(chunks)+1)/2)
		pos := 0
		for i := 0; i < len(chunks); i += 2 {
			if i+1 == len(chunks) {
				dst := buf[pos : pos+len(chunks[i])]
				copy(dst, chunks[i])
				merged = append(merged, dst)
				pos += len(dst)
				continue
			}
			a, b := chunks[i], chunks[i+1]
			dst := buf[pos : pos+len(a)+len(b)]
			pos += len(dst)
			merged = append(merged, dst)
			mwg.Add(1)
			go func(a, b, dst []uint64) {
				defer mwg.Done()
				mergeUint64(a, b, dst)
			}(a, b, dst)
		}
		mwg.Wait()
		// Copy the merged level back into s so the next level (and the
		// final result) lives in the caller's slice.
		pos = 0
		for i := range merged {
			copy(s[pos:pos+len(merged[i])], merged[i])
			merged[i] = s[pos : pos+len(merged[i])]
			pos += len(merged[i])
		}
		chunks = merged
	}
}

func mergeUint64(a, b, dst []uint64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// RandomMaximalPlanarStream builds the triangulation RandomMaximalPlanar
// describes, consuming rng with one Intn per inserted vertex, and sorts its
// packed edges on the given number of workers (0 means GOMAXPROCS). Every
// worker count builds the same graph for equal seeds; RandomMaximalPlanar is
// the one-worker call.
func RandomMaximalPlanarStream(n int, rng *rand.Rand, workers int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: maximal planar needs n >= 3, got %d", n))
	}
	packed := make([]uint64, 0, 3*n-6)
	packed = append(packed, packEdge(0, 1), packEdge(1, 2), packEdge(0, 2))
	faces := make([][3]int, 2, 2*n)
	faces[0] = [3]int{0, 1, 2}
	faces[1] = [3]int{0, 1, 2}
	for v := 3; v < n; v++ {
		fi := rng.Intn(len(faces))
		f := faces[fi]
		// v is larger than every existing vertex, so {f[k], v} is canonical.
		packed = append(packed, packEdge(f[0], v), packEdge(f[1], v), packEdge(f[2], v))
		faces[fi] = [3]int{v, f[0], f[1]}
		faces = append(faces, [3]int{v, f[0], f[2]}, [3]int{v, f[1], f[2]})
	}
	g, err := fromPackedEdges(n, packed, workers)
	if err != nil {
		panic(err) // unreachable: the construction emits distinct in-range edges
	}
	return g
}

// RandomPlanarStream builds the graph RandomPlanar describes on the given
// number of workers: the triangulation's insertions, then one Float64 per
// triangulation edge in canonical order, one Shuffle of the dropped edges
// and a union-find repair that re-adds them until the graph is connected.
// Every worker count builds the same graph for equal seeds; RandomPlanar is
// the one-worker call.
func RandomPlanarStream(n int, keep float64, rng *rand.Rand, workers int) *Graph {
	if keep < 0 {
		keep = 0
	}
	if keep > 1 {
		keep = 1
	}
	tri := RandomMaximalPlanarStream(n, rng, workers)
	kept := make([]uint64, 0, tri.M())
	var dropped []Edge
	for _, e := range tri.Edges() {
		if rng.Float64() < keep {
			kept = append(kept, packEdge(e.U, e.V))
		} else {
			dropped = append(dropped, e)
		}
	}
	// Reconnect with dropped edges (they are all planar-safe).
	uf := NewUnionFind(n)
	for _, k := range kept {
		uf.Union(unpackEdge(k))
	}
	rng.Shuffle(len(dropped), func(i, j int) { dropped[i], dropped[j] = dropped[j], dropped[i] })
	for _, e := range dropped {
		if uf.Sets() == 1 {
			break
		}
		if uf.Union(e.U, e.V) {
			kept = append(kept, packEdge(e.U, e.V))
		}
	}
	g, err := fromPackedEdges(n, kept, workers)
	if err != nil {
		panic(err) // unreachable: kept edges are distinct and in range
	}
	return g
}
