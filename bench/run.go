package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"drugtree/internal/cache"
	"drugtree/internal/integrate"
	"drugtree/internal/mobile"
	"drugtree/internal/store"
)

// lodBudget is the viewport budget every session negotiates.
const lodBudget = 100

// countConn counts the frame bytes crossing the client's end of the
// pipe. Only the client goroutine touches it.
type countConn struct {
	net.Conn
	up, down int64
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.up += int64(n)
	return n, err
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down += int64(n)
	return n, err
}

// session is one mobile client talking to Server.ServeConn over
// net.Pipe — the real frame path minus the socket.
type session struct {
	cl     *mobile.Client
	conn   *countConn
	server net.Conn
	done   chan error
}

func dialSession(ctx context.Context, srv *mobile.Server) (*session, error) {
	cc, sc := net.Pipe()
	done := make(chan error, 1) // one send, so ServeConn's goroutine never blocks on it
	go func() { done <- srv.ServeConn(ctx, sc) }()
	s := &session{conn: &countConn{Conn: cc}, server: sc, done: done}
	cl, err := mobile.Dial(s.conn, mobile.StrategyLODDelta, lodBudget)
	if err != nil {
		_ = cc.Close() // unblocks ServeConn; the dial error is the one to report
		<-s.done
		return nil, fmt.Errorf("dial session: %w", err)
	}
	s.cl = cl
	return s, nil
}

// close says Bye and waits for ServeConn to return.
func (s *session) close() error {
	bye := s.cl.Close()
	if bye != nil {
		_ = s.conn.Close() // a dead pipe: closing it is what lets ServeConn return
	}
	served := <-s.done
	_ = s.conn.Close()   // both ends are idle now; net.Pipe's Close cannot fail
	_ = s.server.Close() // as above
	if bye != nil {
		return fmt.Errorf("close session: %w", bye)
	}
	if served != nil {
		return fmt.Errorf("serve session: %w", served)
	}
	return nil
}

// churner produces the ingest workload's activities deltas. The stream
// is seeded once and continues across rounds; rows it inserts are drawn
// from the dataset's own proteins, ligands and affinities, so the
// table's distribution — and every read's cost — stays stationary.
type churner struct {
	db         *store.DB
	rng        *rand.Rand
	leaves     []string
	ligands    []string
	affinities []float64
	// pool holds the IDs of rows live at the last refill and not yet
	// deleted, in seeded order.
	pool      []int64
	startRows int64
	inserted  int64
	deleted   int64
}

func newChurner(fx *fixture, seed int64) (*churner, error) {
	c := &churner{db: fx.db, rng: rand.New(rand.NewSource(seed ^ 0x5eed)), leaves: fx.eng.Tree().LeafNames()}
	sort.Strings(c.leaves) // tree order differs between builds of one dataset
	for _, l := range fx.ds.Ligands {
		c.ligands = append(c.ligands, l.ID)
	}
	for _, a := range fx.ds.Activities {
		c.affinities = append(c.affinities, a.Affinity)
	}
	t, err := fx.db.Table(integrate.TableActivities)
	if err != nil {
		return nil, fmt.Errorf("churner: %w", err)
	}
	c.startRows = int64(t.Len())
	return c, nil
}

// refill re-reads the live row IDs. Scan order is unspecified, so the
// IDs are sorted before the seed shuffles them.
func (c *churner) refill() error {
	snap := c.db.PinSnapshot()
	defer snap.Release()
	tv, err := snap.View(integrate.TableActivities)
	if err != nil {
		return fmt.Errorf("churner refill: %w", err)
	}
	c.pool = c.pool[:0]
	tv.Scan(func(id int64, _ store.Row) bool {
		c.pool = append(c.pool, id)
		return true
	})
	sort.Slice(c.pool, func(i, j int) bool { return c.pool[i] < c.pool[j] })
	c.rng.Shuffle(len(c.pool), func(i, j int) { c.pool[i], c.pool[j] = c.pool[j], c.pool[i] })
	return nil
}

// next builds the following delta: n deletes of live rows and n
// inserts.
func (c *churner) next(n int) (store.TableDelta, error) {
	if len(c.pool) < n {
		if err := c.refill(); err != nil {
			return store.TableDelta{}, err
		}
		if len(c.pool) < n {
			return store.TableDelta{}, fmt.Errorf("churner: %d live rows, need %d", len(c.pool), n)
		}
	}
	d := store.TableDelta{Table: integrate.TableActivities}
	d.DeleteIDs = append(d.DeleteIDs, c.pool[len(c.pool)-n:]...)
	c.pool = c.pool[:len(c.pool)-n]
	d.Inserts = make([]store.Row, n)
	for i := range d.Inserts {
		d.Inserts[i] = store.Row{
			store.StringValue(c.leaves[c.rng.Intn(len(c.leaves))]),
			store.StringValue(c.ligands[c.rng.Intn(len(c.ligands))]),
			store.FloatValue(c.affinities[c.rng.Intn(len(c.affinities))] + c.rng.NormFloat64()*0.05),
			store.StringValue("churn"),
		}
	}
	c.inserted += int64(n)
	c.deleted += int64(n)
	return d, nil
}

// roundStats is what one replay of the op list measured.
type roundStats struct {
	lat  []time.Duration // per slot, client send → reply decoded
	up   []int64         // per slot, frame bytes sent
	down []int64         // per slot, frame bytes received
	cpu  time.Duration   // process user+sys over the round, less the calibration kernel's
	// slow is how much slower than nominal the host ran during the
	// round (calibrate.go); calibrated times are wall times over it.
	slow   float64
	alloc  uint64        // MemStats.TotalAlloc delta
	allocs uint64        // MemStats.Mallocs delta
	gcs    uint32        // MemStats.NumGC delta
	pause  time.Duration // MemStats.PauseTotalNs delta
	cache  cache.Stats   // semantic-cache counters over the round
	// engine counters over the round (ResetSession zeroes them)
	stmtHits, stmtMisses, sheds, prefetched int64
	deltaNodes                              int64 // TreeDelta.Add nodes received
	failed                                  int   // ops that errored, were shed or failed a check
	// store gauges after the round's session closed
	deadVersions, pinnedVersions int
	activeSnapshots              int64
}

// runner replays one workload's op list against its fixture.
type runner struct {
	fx    *fixture
	sz    sizing
	ops   []op
	srv   *mobile.Server
	churn *churner
	// cal lives only while rounds are played (measure), so its buffer
	// is not part of any heap reading.
	cal *calibrator
	// wantDown is the check round's per-slot reply size; measured
	// rounds of a read-only workload must reproduce it byte for byte.
	wantDown []int64
}

func newRunner(fx *fixture, sz sizing, seed int64) (*runner, error) {
	ops, err := genOps(fx, seed, sz)
	if err != nil {
		return nil, err
	}
	r := &runner{fx: fx, sz: sz, ops: ops, srv: mobile.NewServer(fx.eng)}
	// Synchronous prefetch: deterministic, and charged to the
	// interaction that triggered it.
	r.srv.Async = false
	if fx.workload == wlIngest {
		c, err := newChurner(fx, seed)
		if err != nil {
			return nil, err
		}
		r.churn = c
	}
	return r, nil
}

// logf reports a failed op or check on standard error; standard output
// carries only the metrics.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format, args...)
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// gcStagger allocates and drops phase × the live heap. With GOGC at its
// default the collector next runs when the heap has doubled, and a
// round allocates the same bytes at the same slots every time, so
// without this every round's collections would land on the same slots
// — decided by the process's heap, not by the op — and the per-slot
// quartile could not vote them out. (On `sharded` a collection takes
// one of the two cores from the scatter, and which slots paid for that
// differed from process to process.)
func gcStagger(phase float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ballast := make([]byte, int(phase*float64(m.HeapAlloc)))
	runtime.KeepAlive(ballast)
}

// playRound replays the op list once on a fresh session, its garbage
// collections shifted by phase (0 ≤ phase < 1) of a collection period.
// check, when set, verifies every reply (outside the timed window) —
// the check round; measured rounds pass nil and only compare reply
// sizes.
func (r *runner) playRound(ctx context.Context, phase float64, check func(s *session, o op, reply any) error) (*roundStats, error) {
	eng := r.fx.eng
	eng.ResetSession()
	s, err := dialSession(ctx, r.srv)
	if err != nil {
		return nil, err
	}
	n := len(r.ops)
	st := &roundStats{lat: make([]time.Duration, n), up: make([]int64, n), down: make([]int64, n)}
	cache0 := eng.CacheStats()
	runtime.GC()
	gcStagger(phase)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	r.cal.reset()
	for i, o := range r.ops {
		r.cal.tick()
		var reply any
		var opErr error
		up0, down0 := s.conn.up, s.conn.down
		switch o.Kind {
		case opOpen:
			t0 := time.Now()
			d, err := s.cl.Open(o.Text)
			st.lat[i] = time.Since(t0)
			if err == nil {
				st.deltaNodes += int64(len(d.Add))
			}
			reply, opErr = d, err
		case opQuery:
			t0 := time.Now()
			q, err := s.cl.Query(o.Text)
			st.lat[i] = time.Since(t0)
			reply, opErr = q, err
		case opCommit:
			// The delta is built outside the timed window.
			delta, err := r.churn.next(o.Rows)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			opErr = r.fx.db.CommitDeltas([]store.TableDelta{delta})
			st.lat[i] = time.Since(t0)
		}
		st.up[i], st.down[i] = s.conn.up-up0, s.conn.down-down0
		switch {
		case opErr != nil:
			// A shed request (BusyError) or a server ErrorMsg: counted,
			// and the round goes on.
			st.failed++
			logf("slot %d failed: %v\n", i, opErr)
		case check != nil:
			if err := check(s, o, reply); err != nil {
				st.failed++
				logf("slot %d check failed: %v\n", i, err)
			}
		case r.wantDown != nil && r.fx.workload != wlIngest && st.down[i] != r.wantDown[i]:
			st.failed++
			logf("slot %d replied %d bytes, check round saw %d\n", i, st.down[i], r.wantDown[i])
		}
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	var calSpent time.Duration
	st.slow, calSpent = r.cal.slowdown()
	st.cpu = cpu1 - cpu0 - calSpent
	st.alloc = m1.TotalAlloc - m0.TotalAlloc
	st.allocs = m1.Mallocs - m0.Mallocs
	st.gcs = m1.NumGC - m0.NumGC
	st.pause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	if err := s.close(); err != nil {
		return nil, err
	}
	c1 := eng.CacheStats()
	st.cache = cache.Stats{
		Hits:         c1.Hits - cache0.Hits,
		SubsumedHits: c1.SubsumedHits - cache0.SubsumedHits,
		Misses:       c1.Misses - cache0.Misses,
		Evictions:    c1.Evictions - cache0.Evictions,
		BytesCached:  c1.BytesCached,
	}
	st.stmtHits = eng.Metrics.Counter("query.stmt_cache_hits").Value()
	st.stmtMisses = eng.Metrics.Counter("query.stmt_cache_misses").Value()
	st.sheds = eng.Metrics.Counter("query.shed").Value()
	st.prefetched = eng.Metrics.Counter("prefetch.executed").Value()
	st.deadVersions = r.fx.db.DeadVersions()
	st.pinnedVersions = r.fx.db.PinnedVersions()
	st.activeSnapshots = r.fx.db.ActiveSnapshots()
	if r.fx.workload == wlIngest {
		for _, err := range r.checkIngestRound(ctx) {
			st.failed++
			logf("end-of-round check failed: %v\n", err)
		}
	}
	return st, nil
}

// runResult is everything an untraced run measured.
type runResult struct {
	setups    []setupTiming
	check     *roundStats
	rounds    []*roundStats
	slotLat   []time.Duration // per slot, lower quartile over the measured rounds of the calibrated latency
	slotWall  []time.Duration // the same of the wall latency as measured
	heapLive  uint64          // HeapAlloc after two forced GCs, fixture live
	heapStart uint64          // the same before the first measured round
	attempted int
	failed    int
}

func forcedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// measure plays the check round and then `rounds` measured rounds.
func (r *runner) measure(ctx context.Context, rounds int) (*runResult, error) {
	res := &runResult{}
	var err error
	r.cal = newCalibrator()
	// Warm-up doubles as the check round: same op list, every reply
	// verified against the oracle, nothing timed.
	res.check, err = r.playRound(ctx, 0, r.checkReply(ctx))
	if err != nil {
		return nil, fmt.Errorf("check round: %w", err)
	}
	r.wantDown = res.check.down
	r.cal = nil
	res.heapStart = forcedHeap()
	r.cal = newCalibrator()
	for i := 0; i < rounds; i++ {
		st, err := r.playRound(ctx, float64(i)/float64(rounds), nil)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		res.rounds = append(res.rounds, st)
	}
	r.cal = nil
	res.heapLive = forcedHeap()
	res.slotLat = make([]time.Duration, len(r.ops))
	res.slotWall = make([]time.Duration, len(r.ops))
	wall, calibrated := make([]time.Duration, rounds), make([]time.Duration, rounds)
	for i := range r.ops {
		for j, st := range res.rounds {
			wall[j] = st.lat[i]
			calibrated[j] = time.Duration(float64(st.lat[i]) / st.slow)
		}
		res.slotWall[i] = lowerQuartileDur(wall)
		res.slotLat[i] = lowerQuartileDur(calibrated)
	}
	res.attempted = len(r.ops) * (rounds + 1)
	res.failed = res.check.failed
	for _, st := range res.rounds {
		res.failed += st.failed
	}
	return res, nil
}

// lowerQuartileDur is the slot estimator: the value a quarter of the
// way up the sorted rounds (the second fastest of five, the third of
// ten), without reordering its argument. Disturbance on the reference
// host is one-sided — a neighbour's burst or a collection taking a
// core only ever adds time — so the lower quartile sits closer to the
// op's own cost than the median does and repeats twice as well
// (same-seed `sharded` op_p95_ms: 13 % → 5.6 %), while one lucky round
// cannot set it as it would a minimum.
func lowerQuartileDur(v []time.Duration) time.Duration {
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/4]
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentileDur is the nearest-rank q-quantile.
func percentileDur(v []time.Duration, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(float64(len(s))*q+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func meanDur(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range v {
		sum += d
	}
	return sum / time.Duration(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEndMetrics reduces a run to the eight client-visible numbers.
func (res *runResult) endToEndMetrics(slots int) (map[string]float64, error) {
	if len(res.rounds) == 0 || len(res.setups) == 0 {
		return nil, errors.New("no measured rounds")
	}
	n := float64(slots)
	setups := make([]float64, len(res.setups))
	for i, s := range res.setups {
		setups[i] = s.total.Seconds()
	}
	cpus := make([]float64, len(res.rounds))
	allocs := make([]float64, len(res.rounds))
	var wire int64
	for i, st := range res.rounds {
		cpus[i] = ms(st.cpu) / st.slow / n
		allocs[i] = float64(st.alloc) / 1024 / n
		for j := range st.up {
			wire += st.up[j] + st.down[j]
		}
	}
	return map[string]float64{
		"setup_s":    medianFloat(setups),
		"op_mean_ms": ms(meanDur(res.slotLat)),
		"op_p95_ms":  ms(percentileDur(res.slotLat, 0.95)),
		// The median over rounds, not the minimum: with collections
		// staggered, a round holds one collection more or fewer than
		// its neighbour (on browse, one or two in all), and the
		// minimum would report the round that happened to hold fewest.
		"cpu_ms_per_op":     medianFloat(cpus),
		"alloc_kb_per_op":   medianFloat(allocs),
		"wire_bytes_per_op": float64(wire) / (n * float64(len(res.rounds))),
		"heap_live_mb":      float64(res.heapLive) / 1e6,
	}, nil
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4)
// does (the exclusive method) — the estimator the driver applies to
// its runs. It needs at least two values.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
