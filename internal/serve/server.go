package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a Server.
type Config struct {
	// Spec builds the initial snapshot.
	Spec Spec
	// RunPool is the number of run slots: canonical runs executed
	// concurrently (0 = min(GOMAXPROCS, NumCPU)). Cache hits and coalesced
	// followers never occupy a slot.
	RunPool int
	// QueueDepth bounds the run pool's FIFO admission queue (0 = 4x the
	// pool size). When the queue is full, new canonical runs are rejected
	// with 429 + Retry-After instead of piling up.
	QueueDepth int
	// CacheBytes caps the accounted bytes of the result cache
	// (0 = 256 MiB). Coldest entries are evicted LRU-first past the cap.
	CacheBytes int64
	// Log receives operational messages (nil = discard).
	Log *log.Logger

	// blockRuns, when non-nil, gates every canonical run: the run first
	// receives from the channel before executing. Test-only hook for
	// holding the pool deliberately full.
	blockRuns chan struct{}
}

// famStats is the per-family counter block surfaced by /statz.
type famStats struct {
	requests  atomic.Int64
	errors    atomic.Int64
	rejected  atomic.Int64
	cacheHits atomic.Int64
	flights   atomic.Int64
	coalesced atomic.Int64
	batchSum  atomic.Int64
	batchMax  atomic.Int64
}

func (f *famStats) recordFlight(occupancy int64) {
	f.flights.Add(1)
	f.batchSum.Add(occupancy)
	storeMax(&f.batchMax, occupancy)
}

// Server is the resident query server: one atomically-swappable snapshot,
// a per-key coalescing batcher, an epoch-keyed result cache, and the HTTP
// handlers that tie them together.
type Server struct {
	cfg   Config
	cur   atomic.Pointer[Snapshot]
	epoch atomic.Int64 // last assigned epoch

	cache *resultCache
	batch *batcher
	pool  *runPool

	reloadMu     sync.Mutex // serializes snapshot builds, not queries
	reloads      atomic.Int64
	reloadErrors atomic.Int64
	mutates      atomic.Int64
	mutateErrors atomic.Int64
	mutatedOps   atomic.Int64

	fam   map[string]*famStats
	start time.Time
	mux   *http.ServeMux
}

// New builds the initial snapshot from cfg.Spec and returns a ready server.
func New(cfg Config) (*Server, error) {
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	s := &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheBytes),
		batch: newBatcher(),
		pool:  newRunPool(cfg.RunPool, cfg.QueueDepth),
		fam:   make(map[string]*famStats),
		start: time.Now(),
	}
	for _, f := range Families() {
		s.fam[f] = &famStats{}
	}
	snap, err := BuildSnapshot(cfg.Spec, 1)
	if err != nil {
		return nil, err
	}
	s.epoch.Store(1)
	s.cur.Store(snap)
	cfg.Log.Printf("serve: snapshot epoch 1: n=%d m=%d clusters=%d phi=%.4g (load %v, decompose %v)",
		snap.G.N(), snap.G.M(), len(snap.Dec.Clusters), snap.Dec.Phi, snap.LoadDuration, snap.BuildDuration)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.HandleFunc("/mutate", s.handleMutate)
	s.mux.HandleFunc("/query/", s.handleQuery)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Epoch returns the current snapshot epoch.
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// Close retires the current snapshot. Call after the HTTP listener has
// drained (http.Server.Shutdown), so no new requests arrive. Runs still
// running or waiting for a slot finish on their requests' goroutines; the
// snapshot is freed — and its mmap unmapped — once the last in-flight
// request releases it.
func (s *Server) Close() {
	if snap := s.cur.Swap(nil); snap != nil {
		snap.retire()
	}
}

// errShutdown is returned once Close has swapped the current snapshot out;
// handlers map it to 503.
var errShutdown = errors.New("server is shut down")

// snapshot pins the current snapshot for one request. The retry loop only
// spins when a reload retires a fully drained snapshot between the load
// and the acquire — the next load observes the replacement.
func (s *Server) snapshot() (*Snapshot, error) {
	for {
		snap := s.cur.Load()
		if snap == nil {
			return nil, errShutdown
		}
		if snap.acquire() {
			return snap, nil
		}
	}
}

// Reload builds a snapshot from spec (zero-value fields inherit the
// current spec), swaps it in, and retires the predecessor. Queries keep
// running against whichever snapshot they pinned; none are dropped.
func (s *Server) Reload(spec Spec) (*Snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur := s.cur.Load()
	if cur == nil {
		return nil, errShutdown
	}
	merged := cur.Spec
	if spec.Path != "" {
		merged.Path = spec.Path
		merged.Mmap = spec.Mmap
	}
	if spec.Eps != 0 {
		merged.Eps = spec.Eps
	}
	if spec.Seed != 0 {
		merged.Seed = spec.Seed
	}
	if spec.DecWorkers != 0 {
		merged.DecWorkers = spec.DecWorkers
	}
	epoch := s.epoch.Load() + 1
	snap, err := BuildSnapshot(merged, epoch) // built entirely off to the side
	if err != nil {
		s.reloadErrors.Add(1)
		return nil, err
	}
	s.epoch.Store(epoch)
	old := s.cur.Swap(snap)
	s.cache.swapEpoch(epoch)
	if old != nil {
		old.retire()
	}
	s.reloads.Add(1)
	s.cfg.Log.Printf("serve: swapped to epoch %d: n=%d m=%d clusters=%d (load %v, decompose %v)",
		epoch, snap.G.N(), snap.G.M(), len(snap.Dec.Clusters), snap.LoadDuration, snap.BuildDuration)
	return snap, nil
}

// QueryResponse is the envelope of a POST /query/<family> answer. Result
// is the canonical shared outcome (identical for every member of a batch
// and for a cache hit); the envelope fields describe how this particular
// request was served. When a projection is requested, the bulky per-vertex
// arrays are omitted from Result and Selection carries the answers.
type QueryResponse struct {
	Family    string         `json:"family"`
	Epoch     int64          `json:"epoch"`
	Cached    bool           `json:"cached"`
	BatchSize int64          `json:"batch_size"`
	TookMs    float64        `json:"took_ms"`
	Selection []VertexAnswer `json:"selection,omitempty"`
	Result    *Result        `json:"result"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": s.epoch.Load()})
}

// statzFamily is the JSON shape of one family's counters.
type statzFamily struct {
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	Rejected  int64   `json:"rejected"`
	CacheHits int64   `json:"cache_hits"`
	Flights   int64   `json:"flights"`
	Coalesced int64   `json:"coalesced"`
	BatchMean float64 `json:"batch_mean"`
	BatchMax  int64   `json:"batch_max"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	snap, err := s.snapshot()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer snap.release()
	families := make(map[string]statzFamily, len(s.fam))
	for name, f := range s.fam {
		sf := statzFamily{
			Requests:  f.requests.Load(),
			Errors:    f.errors.Load(),
			Rejected:  f.rejected.Load(),
			CacheHits: f.cacheHits.Load(),
			Flights:   f.flights.Load(),
			Coalesced: f.coalesced.Load(),
			BatchMax:  f.batchMax.Load(),
		}
		if sf.Flights > 0 {
			sf.BatchMean = float64(f.batchSum.Load()) / float64(sf.Flights)
		}
		families[name] = sf
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":          snap.Epoch,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"graph": map[string]any{
			"path": snap.Spec.Path, "mmap": snap.Spec.Mmap, "zero_copy": snap.ZeroCopy,
			"n": snap.G.N(), "m": snap.G.M(),
		},
		"decomposition": map[string]any{
			"eps": snap.Spec.Eps, "phi": snap.Dec.Phi, "seed": snap.Spec.Seed,
			"clusters": len(snap.Dec.Clusters), "cut_edges": len(snap.Dec.Removed),
			"load_ms":     float64(snap.LoadDuration.Nanoseconds()) / 1e6,
			"build_ms":    float64(snap.BuildDuration.Nanoseconds()) / 1e6,
			"walk_budget": snap.WalkBudget,
		},
		"reloads":       s.reloads.Load(),
		"reload_errors": s.reloadErrors.Load(),
		"mutates":       s.mutates.Load(),
		"mutate_errors": s.mutateErrors.Load(),
		"mutated_ops":   s.mutatedOps.Load(),
		"mutations":     snap.Mutations,
		"cache_entries": s.cache.size(snap.Epoch),
		"cache":         s.cache.statz(),
		"pool":          s.pool.statz(),
		"families":      families,
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var spec Spec
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, "bad reload spec: %v", err)
			return
		}
	}
	snap, err := s.Reload(spec)
	if errors.Is(err, errShutdown) {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "reload failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch": snap.Epoch, "n": snap.G.N(), "m": snap.G.M(),
		"clusters": len(snap.Dec.Clusters),
		"load_ms":  float64(snap.LoadDuration.Nanoseconds()) / 1e6,
		"build_ms": float64(snap.BuildDuration.Nanoseconds()) / 1e6,
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	family := strings.TrimPrefix(r.URL.Path, "/query/")
	fs, ok := s.fam[family]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown query family %q (have %s)",
			family, strings.Join(Families(), ", "))
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var p Params
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			writeError(w, http.StatusBadRequest, "bad query params: %v", err)
			return
		}
	}

	snap, err := s.snapshot()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer snap.release()

	p = p.withDefaults(family)
	if err := p.validate(family, snap.G.N()); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fs.requests.Add(1)

	t0 := time.Now()
	key := p.key(family)
	var (
		enc       *encResult
		cached    bool
		occupancy = int64(1)
	)
	if c := s.cache.get(snap.Epoch, key); c != nil {
		enc, cached = c, true
		fs.cacheHits.Add(1)
	} else {
		var led bool
		// The flight key carries the epoch so that requests pinned to
		// different snapshots can never share a run. Only the flight leader
		// touches the run pool, and runs the canonical run on its own
		// goroutine once it holds a slot: followers wait on the flight,
		// cache hits above never get here, so pool saturation throttles
		// exactly the requests that would start a new canonical run.
		enc, occupancy, led, err = s.batch.do(fmt.Sprintf("e%d|%s", snap.Epoch, key), func() (*encResult, error) {
			var (
				e    *encResult
				rerr error
			)
			perr := s.pool.submit(func() {
				defer func() {
					if rec := recover(); rec != nil {
						rerr = fmt.Errorf("canonical run panicked: %v", rec)
					}
				}()
				if s.cfg.blockRuns != nil {
					<-s.cfg.blockRuns
				}
				var r *Result
				r, rerr = runQuery(snap, family, p)
				if rerr != nil {
					return
				}
				// Encode once, inside the pool slot (encoding cost scales
				// with the result, so it is admission-controlled too), and
				// publish before the flight deregisters so late arrivals
				// hit the cache instead of re-running.
				e = newEncResult(r)
				s.cache.put(snap.Epoch, key, e)
			})
			if perr != nil {
				return nil, perr
			}
			return e, rerr
		})
		if errors.Is(err, ErrSaturated) {
			fs.rejected.Add(1)
			s.writeSaturated(w)
			return
		}
		if err != nil {
			fs.errors.Add(1)
			writeError(w, http.StatusInternalServerError, "query failed: %v", err)
			return
		}
		if led {
			fs.recordFlight(occupancy)
		} else {
			fs.coalesced.Add(1)
		}
	}

	// Hot response path: envelope appended around the pre-encoded result
	// bytes in a pooled buffer. A cache hit is a header write plus one
	// buffer copy — no per-vertex encoding work at all.
	tookMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	var (
		selection   []VertexAnswer
		resultBytes = enc.full
	)
	if sel := p.selection(); len(sel) > 0 {
		selection = enc.res.project(sel)
		resultBytes = enc.trimmed
	}
	rb := getRespBuf()
	b := appendQueryResponse(rb.b[:0], family, snap.Epoch, cached, occupancy, tookMs, selection, resultBytes)
	b = append(b, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	rb.b = b
	putRespBuf(rb)
}

// writeSaturated answers a request whose canonical run could not be
// admitted: 429 with a Retry-After estimate in both the conventional
// header and the structured JSON body.
func (s *Server) writeSaturated(w http.ResponseWriter) {
	retry := int(s.pool.retryAfter().Round(time.Second) / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeJSON(w, http.StatusTooManyRequests, saturatedResponse{
		Error:             "run pool saturated: admission queue is full, retry later",
		RetryAfterSeconds: retry,
	})
}

// saturatedResponse is the structured 429 error body.
type saturatedResponse struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}
