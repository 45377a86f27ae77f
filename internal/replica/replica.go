// Package replica turns one shard store into a replica set: a single
// leader owns the writable store and its WAL, and N followers — each
// an independent store.DB seeded from a leader snapshot — stay current
// by tailing the leader's WAL through the store's sequence-numbered
// segment-read API (snapshot-then-tail). Reads route across the set
// under a configurable staleness bound; writes always hit the leader.
// On leader death the most-caught-up live follower is promoted after
// replaying the dead leader's durable tail, and the set keeps serving.
//
// Replication is tick-driven: Ship applies the pending tail once and
// returns. The library spawns no goroutines and reads time only
// through an injectable netsim.Clock, so chaos experiments drive
// kill/promote/catch-up timelines deterministically on a virtual
// clock; the daemon pumps Ship from a wall-clock loop in cmd/.
package replica

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"drugtree/internal/netsim"
	"drugtree/internal/query"
	"drugtree/internal/store"
	"drugtree/internal/vfs"
)

// Errors surfaced by the replica set.
var (
	// ErrLeaderDown means the write path is unavailable until a
	// promotion succeeds.
	ErrLeaderDown = errors.New("replica: leader is down")
	// ErrNoLiveReplica means promotion found no live node to take over.
	ErrNoLiveReplica = errors.New("replica: no live replica to promote")
)

// ReadPolicy selects which nodes of a set may answer a read.
type ReadPolicy int

const (
	// ReadAny round-robins over every serviceable node, leader
	// included. The default.
	ReadAny ReadPolicy = iota
	// ReadLeader pins reads to the leader (resync and the
	// differential baseline use it).
	ReadLeader
	// ReadFollowers prefers followers and falls back to the leader
	// only when no follower is serviceable.
	ReadFollowers
)

// Config parameterizes a Set.
type Config struct {
	// Followers is the number of read replicas beside the leader.
	Followers int
	// MaxLagSeqs bounds read staleness: a follower lagging more than
	// this many WAL records behind the set frontier is skipped by the
	// router. 0 demands fully-caught-up followers; negative disables
	// the bound.
	MaxLagSeqs int64
	// Clock is the injectable time source (promotion latency is
	// measured through it). Defaults to the wall clock.
	Clock netsim.Clock
	// OpenEngine builds a query engine over one node's store. The
	// shard layer closes it over the shared tree and query options.
	OpenEngine func(db *store.DB) *query.Engine
}

// nodeState is the swappable (db, engine) pair of one node: a re-seed
// replaces both atomically so in-flight reads finish on the old image.
type nodeState struct {
	db     *store.DB
	engine *query.Engine
}

// node is one member of the set. down and state are lock-free for the
// read router; term is guarded by Set.mu.
type node struct {
	id    int
	dir   string
	state atomic.Pointer[nodeState]
	down  atomic.Bool
	// term is the promotion epoch this node last synced under. A node
	// that was down across a promotion cannot prove its log is a
	// prefix of the new leader's stream, so it re-seeds on rejoin.
	term    int64
	reseeds atomic.Int64
	scrubs  atomic.Int64
}

func (n *node) seq() int64 { return n.state.Load().db.WALSeq() }

// Set is one shard's replica set.
type Set struct {
	// mu serializes mutations of the set: leader writes, shipping,
	// seeding, promotion, kill/restart. The read router never takes it.
	mu         sync.Mutex
	cfg        Config
	nodes      []*node
	leaderIdx  atomic.Int64
	term       int64
	rr         atomic.Int64
	promotions atomic.Int64
	// maxServedLag records the largest follower lag the router ever
	// served a read at — the observable staleness bound for T12.
	maxServedLag    atomic.Int64
	promoteLatency  atomic.Int64 // nanoseconds, last successful promotion
	promoteReplayed atomic.Int64 // tail records replayed at last promotion
	onTopology      func()
	// sopts/fsys are the leader store's durability options, inherited
	// by every follower store and by the scrubber, so the whole set
	// shares one filesystem seam and fsync policy.
	sopts store.Options
	fsys  vfs.FS
}

// NewSet wraps leader (a durable store) in a replica set with
// cfg.Followers freshly-seeded followers in <leaderdir>-replica-<j>
// sibling directories. Siblings, not children: a re-seed wipes the
// node's directory wholesale, and after a promotion the demoted
// ex-leader (whose directory is the original leader dir) is itself a
// re-seed target — nesting the followers under it would let that
// wipe destroy every live replica's files. onTopology, when non-nil,
// runs after every topology transition (kill, restart, promotion) so
// the owner can invalidate topology-keyed caches.
func NewSet(leader *store.DB, cfg Config, onTopology func()) (*Set, error) {
	if leader.Dir() == "" {
		return nil, errors.New("replica: leader must be a durable store (WAL shipping needs a log)")
	}
	if cfg.OpenEngine == nil {
		return nil, errors.New("replica: Config.OpenEngine is required")
	}
	if cfg.Followers < 0 {
		return nil, fmt.Errorf("replica: negative follower count %d", cfg.Followers)
	}
	if cfg.Clock == nil {
		cfg.Clock = netsim.NewWallClock()
	}
	s := &Set{cfg: cfg, onTopology: onTopology, sopts: leader.Opts(), fsys: leader.FS()}
	lead := &node{id: 0, dir: leader.Dir()}
	lead.state.Store(&nodeState{db: leader, engine: cfg.OpenEngine(leader)})
	s.nodes = append(s.nodes, lead)
	for j := 1; j <= cfg.Followers; j++ {
		n := &node{id: j, dir: fmt.Sprintf("%s-replica-%d", filepath.Clean(leader.Dir()), j)}
		s.nodes = append(s.nodes, n)
		if err := s.reseedLocked(n); err != nil {
			s.Close()
			return nil, fmt.Errorf("replica: seeding follower %d: %w", j, err)
		}
	}
	return s, nil
}

// Nodes returns the set size (leader + followers).
func (s *Set) Nodes() int { return len(s.nodes) }

// Live returns how many nodes are currently up.
func (s *Set) Live() int {
	live := 0
	for _, n := range s.nodes {
		if !n.down.Load() {
			live++
		}
	}
	return live
}

// LeaderIndex returns the current leader's node index.
func (s *Set) LeaderIndex() int { return int(s.leaderIdx.Load()) }

// Leader returns the current leader's store.
func (s *Set) Leader() *store.DB {
	return s.nodes[s.leaderIdx.Load()].state.Load().db
}

// Promotions returns how many promotions the set has performed.
func (s *Set) Promotions() int64 { return s.promotions.Load() }

// MaxServedLag returns the largest follower lag (in WAL records) any
// served read observed — the empirical staleness bound.
func (s *Set) MaxServedLag() int64 { return s.maxServedLag.Load() }

// LastPromotion returns the latency of and tail records replayed by
// the most recent promotion.
func (s *Set) LastPromotion() (time.Duration, int64) {
	return time.Duration(s.promoteLatency.Load()), s.promoteReplayed.Load()
}

// Close closes every node's store.
func (s *Set) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, n := range s.nodes {
		if n.down.Load() {
			continue // its store was closed at kill time
		}
		st := n.state.Load()
		if st == nil {
			continue // seeding failed before the node ever had a store
		}
		if err := st.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Insert writes one row through the leader (the only writable node).
func (s *Set) Insert(table string, r store.Row) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lead := s.nodes[s.leaderIdx.Load()]
	if lead.down.Load() {
		return 0, ErrLeaderDown
	}
	return lead.state.Load().db.Insert(table, r)
}

// Ship applies the leader's pending WAL tail to every live follower
// (one replication tick). A follower whose position has been
// checkpointed away or whose stream is corrupt re-seeds from a fresh
// leader snapshot instead of diverging silently.
func (s *Set) Ship(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lead := s.nodes[s.leaderIdx.Load()]
	if lead.down.Load() {
		return ErrLeaderDown
	}
	for _, n := range s.nodes {
		if n == lead || n.down.Load() {
			continue
		}
		if err := s.catchUpLocked(ctx, n, lead); err != nil {
			return fmt.Errorf("replica: shipping to follower %d: %w", n.id, err)
		}
	}
	return nil
}

// catchUpLocked tails leader WAL records into n, re-seeding when the
// stream cannot be trusted or n's log is not provably a prefix of the
// leader's (it was down across a promotion, or is ahead of the
// leader). Callers hold s.mu.
func (s *Set) catchUpLocked(ctx context.Context, n *node, lead *node) error {
	ldb := lead.state.Load().db
	fdb := n.state.Load().db
	if n.term != s.term || fdb.WALSeq() > ldb.WALSeq() {
		return s.reseedLocked(n)
	}
	err := ldb.ScanWAL(fdb.WALSeq(), func(seq int64, body []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fdb.ApplyReplicated(seq, body)
	})
	if errors.Is(err, store.ErrWALGap) || errors.Is(err, store.ErrWALCorrupt) {
		// Truncated or damaged stream: the follower cannot tail its
		// way to the frontier. Re-seed from the leader's live image.
		return s.reseedLocked(n)
	}
	return err
}

// reseedLocked wipes n's directory and rebuilds it from a fresh
// leader snapshot (the snapshot-then-tail bootstrap). Callers hold
// s.mu, which quiesces leader writes so the image/seq pair is
// consistent.
func (s *Set) reseedLocked(n *node) error {
	if old := n.state.Load(); old != nil {
		old.db.Close()
	}
	if err := s.fsys.RemoveAll(n.dir); err != nil {
		return err
	}
	if err := s.fsys.MkdirAll(n.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(n.dir, "snapshot.dts")
	f, err := s.fsys.Create(path)
	if err != nil {
		return err
	}
	lead := s.nodes[s.leaderIdx.Load()]
	if _, err := lead.state.Load().db.WriteSnapshotTo(f); err != nil {
		f.Close()
		return err
	}
	// The seed must be durable before the follower serves from it: a
	// crash that loses a half-written seed snapshot would otherwise
	// resurrect the corrupt state this re-seed is erasing.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fsys.SyncDir(n.dir); err != nil {
		return err
	}
	db, err := store.OpenWith(n.dir, s.sopts)
	if err != nil {
		return err
	}
	n.state.Store(&nodeState{db: db, engine: s.cfg.OpenEngine(db)})
	n.term = s.term
	n.reseeds.Add(1)
	return nil
}

// quarantineLocked moves n's directory aside to <dir>.quarantine
// (replacing any previous quarantine) so the damaged bytes survive
// for forensics while the node re-seeds into a clean directory.
// Callers hold s.mu.
func (s *Set) quarantineLocked(n *node) error {
	q := n.dir + ".quarantine"
	if err := s.fsys.RemoveAll(q); err != nil {
		return err
	}
	if err := s.fsys.Rename(n.dir, q); err != nil {
		return err
	}
	return s.fsys.SyncDir(filepath.Dir(filepath.Clean(n.dir)))
}

// Scrub verifies every live follower's at-rest state (snapshot
// checksum, WAL record CRCs) and self-heals any follower whose bytes
// have rotted: the damaged directory is quarantined and the follower
// re-seeds from a fresh leader snapshot, so a checksum-bad row can
// never be served after the node's next reopen. It returns how many
// followers were healed. The leader is not scrubbed here — its
// corruption surfaces at reopen/checkpoint and is a promotion case,
// not a re-seed case.
func (s *Set) Scrub() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lead := s.nodes[s.leaderIdx.Load()]
	if lead.down.Load() {
		return 0, ErrLeaderDown
	}
	healed := 0
	for _, n := range s.nodes {
		if n == lead || n.down.Load() {
			continue
		}
		if err := store.VerifyDir(s.fsys, n.dir); err == nil {
			continue
		}
		if err := s.quarantineLocked(n); err != nil {
			return healed, fmt.Errorf("replica: quarantining follower %d: %w", n.id, err)
		}
		if err := s.reseedLocked(n); err != nil {
			return healed, fmt.Errorf("replica: re-seeding scrubbed follower %d: %w", n.id, err)
		}
		n.scrubs.Add(1)
		healed++
	}
	return healed, nil
}

// Kill simulates a crash of node i: it is removed from routing and
// its store is closed. Killing the leader leaves the set read-only
// (followers keep serving) until Promote installs a new leader.
func (s *Set) Kill(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[i]
	if n.down.Load() {
		return
	}
	n.down.Store(true)
	n.state.Load().db.Close()
	if s.onTopology != nil {
		s.onTopology()
	}
}

// Restart brings a killed node back: its store reopens from its own
// durable directory (snapshot + WAL replay), then catches up to the
// current leader — tailing when its log is provably a prefix of the
// leader's stream, re-seeding otherwise.
func (s *Set) Restart(ctx context.Context, i int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[i]
	if !n.down.Load() {
		return nil
	}
	db, err := store.OpenWith(n.dir, s.sopts)
	if err != nil {
		// The node's durable state is unreadable (checksum-bad snapshot,
		// unparseable WAL): self-heal by quarantining the damage and
		// re-seeding from the live leader instead of refusing to rejoin.
		lead := s.nodes[s.leaderIdx.Load()]
		if n == lead || lead.down.Load() {
			return fmt.Errorf("replica: reopening node %d: %w", i, err)
		}
		if qerr := s.quarantineLocked(n); qerr != nil {
			return fmt.Errorf("replica: quarantining node %d (%v): %w", i, err, qerr)
		}
		if rerr := s.reseedLocked(n); rerr != nil {
			return fmt.Errorf("replica: re-seeding node %d (%v): %w", i, err, rerr)
		}
		n.down.Store(false)
		if s.onTopology != nil {
			s.onTopology()
		}
		return nil
	}
	n.state.Store(&nodeState{db: db, engine: s.cfg.OpenEngine(db)})
	lead := s.nodes[s.leaderIdx.Load()]
	if n != lead && !lead.down.Load() {
		if err := s.catchUpLocked(ctx, n, lead); err != nil {
			n.state.Load().db.Close()
			return fmt.Errorf("replica: node %d rejoin catch-up: %w", i, err)
		}
	}
	n.down.Store(false)
	if s.onTopology != nil {
		s.onTopology()
	}
	return nil
}

// Promote installs the most-caught-up live node as leader after the
// current leader died. The dead leader's durable WAL tail — records
// it committed but never shipped — is replayed onto the candidate
// first; a corrupt tail record is a crash artifact and ends the
// replay, while a sequence gap (the tail was checkpointed away past
// the candidate) aborts the promotion. Live followers keep tailing
// across the promotion (their logs are prefixes of the same stream);
// nodes down across it re-seed on rejoin.
func (s *Set) Promote(ctx context.Context) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	oldIdx := int(s.leaderIdx.Load())
	old := s.nodes[oldIdx]
	if !old.down.Load() {
		return oldIdx, nil // leader is alive; nothing to promote
	}
	start := s.cfg.Clock.Now()
	best := -1
	var bestSeq int64 = -1
	for _, n := range s.nodes {
		if n == old || n.down.Load() {
			continue
		}
		if seq := n.seq(); seq > bestSeq {
			best, bestSeq = n.id, seq
		}
	}
	if best < 0 {
		return -1, ErrNoLiveReplica
	}
	cand := s.nodes[best]
	cdb := cand.state.Load().db
	var replayed int64
	err := old.state.Load().db.ScanWAL(cdb.WALSeq(), func(seq int64, body []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := cdb.ApplyReplicated(seq, body); err != nil {
			return err
		}
		replayed++
		return nil
	})
	if err != nil && !errors.Is(err, store.ErrWALCorrupt) {
		return -1, fmt.Errorf("replica: replaying dead leader tail: %w", err)
	}
	s.leaderIdx.Store(int64(best))
	s.term++
	for _, n := range s.nodes {
		if !n.down.Load() {
			n.term = s.term
		}
	}
	s.promotions.Add(1)
	s.promoteReplayed.Store(replayed)
	s.promoteLatency.Store(int64(s.cfg.Clock.Now() - start))
	if s.onTopology != nil {
		s.onTopology()
	}
	return best, nil
}

// Route picks a node to answer a read under policy, skipping dead
// nodes and followers lagging beyond MaxLagSeqs, round-robin over the
// remainder. ok is false when no node may serve (every replica of the
// shard is down).
func (s *Set) Route(policy ReadPolicy) (eng *query.Engine, nodeID int, ok bool) {
	lead := int(s.leaderIdx.Load())
	if policy == ReadLeader {
		n := s.nodes[lead]
		if n.down.Load() {
			return nil, -1, false
		}
		return n.state.Load().engine, lead, true
	}
	frontier := s.Frontier()
	type cand struct {
		n   *node
		lag int64
	}
	var cands []cand
	for _, n := range s.nodes {
		if n.down.Load() {
			continue
		}
		if n.id == lead {
			if policy == ReadFollowers {
				continue
			}
			cands = append(cands, cand{n, 0})
			continue
		}
		lag := frontier - n.seq()
		if s.cfg.MaxLagSeqs >= 0 && lag > s.cfg.MaxLagSeqs {
			continue // too stale to serve
		}
		cands = append(cands, cand{n, lag})
	}
	if len(cands) == 0 {
		if policy == ReadFollowers {
			// No serviceable follower: degrade to the leader rather
			// than fail the read.
			n := s.nodes[lead]
			if !n.down.Load() {
				return n.state.Load().engine, lead, true
			}
		}
		return nil, -1, false
	}
	c := cands[int(s.rr.Add(1)-1)%len(cands)]
	for {
		cur := s.maxServedLag.Load()
		if c.lag <= cur || s.maxServedLag.CompareAndSwap(cur, c.lag) {
			break
		}
	}
	return c.n.state.Load().engine, c.n.id, true
}

// Frontier returns the highest WAL sequence any live node has — the
// freshness bar lag is measured against. With every node down it
// falls back to the dead nodes' last known positions.
func (s *Set) Frontier() int64 {
	var live, all int64
	anyLive := false
	for _, n := range s.nodes {
		seq := n.seq()
		if seq > all {
			all = seq
		}
		if !n.down.Load() {
			anyLive = true
			if seq > live {
				live = seq
			}
		}
	}
	if anyLive {
		return live
	}
	return all
}

// Health is one node's replication status.
type Health struct {
	Replica    int
	Role       string // "leader" or "follower"
	Status     string // "ok" or "down"
	AppliedSeq int64  // last WAL record applied locally
	Lag        int64  // records behind the set frontier
	Reseeds    int64  // snapshot re-seeds this node has undergone
	Scrubs     int64  // scrub-detected corruptions healed on this node
}

// Health reports every node's role, liveness, applied sequence, and
// lag against the set frontier.
func (s *Set) Health() []Health {
	lead := int(s.leaderIdx.Load())
	frontier := s.Frontier()
	out := make([]Health, len(s.nodes))
	for i, n := range s.nodes {
		h := Health{
			Replica:    i,
			Role:       "follower",
			Status:     "ok",
			AppliedSeq: n.seq(),
			Reseeds:    n.reseeds.Load(),
			Scrubs:     n.scrubs.Load(),
		}
		if i == lead {
			h.Role = "leader"
		}
		if n.down.Load() {
			h.Status = "down"
		}
		if lag := frontier - h.AppliedSeq; lag > 0 {
			h.Lag = lag
		}
		out[i] = h
	}
	return out
}
