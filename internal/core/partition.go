package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// partition.go is the partitioned parallel scheduler: a build-time
// sharding of the levelized schedule plus the runtime that executes it.
//
// The flat parallel engine (pool.go) pays three costs that never
// amortize on real netlists: a global wake mutex on every resolution, a
// single contended claim counter per round, and a channel dispatch per
// round. The partitioned engine moves all three to compile time. At
// Compile, the module graph is split into nShards connectivity-grown
// shards; every connection belongs to its driving module's shard, every
// level of the static schedule is pre-split per shard, and the signal
// plane is re-laid out so each shard's status and scalar lanes occupy
// disjoint cache lines (see buildPartition). At run time a drain phase
// dispatches the workers once, and the barrier-synchronized rounds
// inside the phase touch only per-shard state: wakes append to the
// woken instance's shard queue (almost always a worker-local,
// uncontended mutex, because the partition follows connectivity), and
// claims advance a per-shard counter. A worker that exhausts its own
// shards steals from the others' claim counters — cross-shard work
// stealing — so imbalance costs latency, never correctness.
//
// Determinism is inherited from the same two properties every other
// engine relies on (DESIGN.md Appendix H): reactive handlers are
// monotonic, so any execution order of a round set reaches the same
// fixed point (confluence), and default-control values depend only on
// the connection's own earlier-kind signals, so defaults within one
// level commute. The cyclic residue additionally runs as a parallel
// ready-set wavefront only when compile-time analysis proves no residue
// endpoint has a reactive handler (fwdWavefront/ackWavefront): then the
// dependency closure, the stall set and therefore the break sites are
// order-independent, and default/break counts stay bit-exact. A
// handler-adjacent residue falls back to the sequential worklist.
//
// Worker counts stay a session property: the compiled shard count is
// fixed (WithShards, default 16) and a session's executors own the
// shard sets {e, e+k, e+2k, ...}. Each phase caps its live executors at
// GOMAXPROCS — running more spinners than cores never wins — so a
// session built with eight workers degrades gracefully to sequential
// execution on a one-core host instead of regressing.

// defaultShards is the compile-time shard count when WithShards is not
// given: enough granularity for eight workers to steal in units of two.
const defaultShards = 16

// shardPad is the slot-count gap inserted between consecutive shards'
// plane regions: 16 four-byte status cells = 64 bytes, one full cache
// line, so no line ever holds cells of two shards regardless of the
// slice's base alignment (the eight-byte scalar lane gets two lines).
const shardPad = 16

// progPartition is the compiled shard partition, shared read-only
// across every session of a Program.
type progPartition struct {
	nShards   int
	instShard []int32 // instance id -> shard
	connShard []int32 // conn id -> shard of the driving module
	slot      []int32 // conn id -> physical plane slot (shard-grouped, padded)
	planeSize int     // padded plane length

	// Static sweep levels pre-split per shard: [level][shard] -> conn
	// ids, id-ordered within each chunk.
	fwdLevelShards [][][]int32
	ackLevelShards [][][]int32

	// Wavefront flags: the residue of the direction may run as parallel
	// ready-set batches because no residue connection endpoint has a
	// reactive handler (defaults then commute and the worklist's stall
	// set — hence break sites and counts — is order-independent).
	fwdWavefront bool
	ackWavefront bool
}

// buildPartition computes the shard partition over a netlist whose
// levelized schedule is already compiled. Instances are grown into
// shards by BFS over the undirected module graph from the lowest
// unassigned id, so shards are connected regions and a worker's wakes
// land on its own shard queues; shard sizes are balanced to within one
// instance. Deterministic: adjacency follows connection id order.
func buildPartition(instances []Instance, conns []*Conn, sc *progSchedule, nShards int) *progPartition {
	n := len(instances)
	if nShards > n && n > 0 {
		nShards = n
	}
	if nShards < 1 {
		nShards = 1
	}
	pt := &progPartition{
		nShards:   nShards,
		instShard: make([]int32, n),
		connShard: make([]int32, len(conns)),
		slot:      make([]int32, len(conns)),
	}

	// Undirected module adjacency, neighbor order fixed by conn id.
	adj := make([][]int32, n)
	for _, c := range conns {
		si, di := int32(c.src.owner.id), int32(c.dst.owner.id)
		if si != di {
			adj[si] = append(adj[si], di)
			adj[di] = append(adj[di], si)
		}
	}

	// Region growing: fill shard 0, 1, ... to quota by BFS; when a shard
	// fills mid-frontier the remaining frontier seeds the next shard, so
	// consecutive shards stay adjacent in the netlist graph.
	for i := range pt.instShard {
		pt.instShard[i] = -1
	}
	assigned, shard := 0, 0
	quota := (n + nShards - 1) / nShards
	take := 0
	var frontier []int32
	bump := func(id int32) {
		pt.instShard[id] = int32(shard)
		assigned++
		take++
		if take >= quota && shard < nShards-1 {
			shard++
			take = 0
			rem := n - assigned
			if slots := nShards - shard; slots > 0 {
				quota = (rem + slots - 1) / slots
			}
		}
	}
	for seed := 0; seed < n; seed++ {
		if pt.instShard[seed] != -1 {
			continue
		}
		frontier = append(frontier[:0], int32(seed))
		bump(int32(seed))
		for len(frontier) > 0 {
			v := frontier[0]
			frontier = frontier[1:]
			for _, w := range adj[v] {
				if pt.instShard[w] == -1 {
					bump(w)
					frontier = append(frontier, w)
				}
			}
		}
	}

	// A connection belongs to its driver's shard: the driver writes the
	// data and enable lanes, so the shard's plane region is written by
	// the worker that owns it (ack defaults are applied by the same
	// owner for the same reason — the cell lives in this region).
	shardConns := make([][]int32, nShards)
	for _, c := range conns {
		sh := pt.instShard[c.src.owner.id]
		pt.connShard[c.id] = sh
		shardConns[sh] = append(shardConns[sh], int32(c.id))
	}

	// Plane slot layout: shard regions in shard order, conn-id order
	// within a region, every region rounded up to a slot multiple of
	// shardPad and then separated by one further full pad — a ≥64-byte
	// gap on the narrowest (4-byte status) lane, so no cache line spans
	// two shards however the backing arrays are aligned.
	next := 0
	for _, ids := range shardConns {
		for _, id := range ids {
			pt.slot[id] = int32(next)
			next++
		}
		next = (next+shardPad-1)&^(shardPad-1) + shardPad
	}
	pt.planeSize = next
	if pt.planeSize < len(conns) {
		pt.planeSize = len(conns)
	}

	pt.fwdLevelShards = splitLevels(sc.fwdLevels, pt.connShard, nShards)
	pt.ackLevelShards = splitLevels(sc.ackLevels, pt.connShard, nShards)
	pt.fwdWavefront = residueHandlerFree(conns, sc.fwdResidue)
	pt.ackWavefront = residueHandlerFree(conns, sc.ackResidue)

	info := &sc.info
	info.Shards = nShards
	info.LevelImbalance = levelImbalance(sc.fwdLevels, pt.fwdLevelShards, nShards)
	return pt
}

// splitLevels pre-splits each level's conn list per shard, keeping conn
// id order inside every chunk.
func splitLevels(levels [][]int32, connShard []int32, nShards int) [][][]int32 {
	out := make([][][]int32, len(levels))
	for li, lvl := range levels {
		chunks := make([][]int32, nShards)
		for _, id := range lvl {
			sh := connShard[id]
			chunks[sh] = append(chunks[sh], id)
		}
		out[li] = chunks
	}
	return out
}

// residueHandlerFree reports whether no endpoint of any residue
// connection has a reactive handler — the compile-time condition under
// which the residue worklist may run as parallel wavefront batches
// without changing defaults, break sites or counts.
func residueHandlerFree(conns []*Conn, ids []int32) bool {
	for _, id := range ids {
		c := conns[id]
		if c.src.owner.react != nil || c.dst.owner.react != nil {
			return false
		}
	}
	return true
}

// levelImbalance computes, per forward level, the largest shard chunk
// relative to the ideal even share (1.0 = perfectly balanced) — the
// compile-time bound on how long a level barrier can idle waiting for
// its slowest shard, before stealing.
func levelImbalance(levels [][]int32, shards [][][]int32, nShards int) []float64 {
	out := make([]float64, len(levels))
	for li, lvl := range levels {
		if len(lvl) == 0 {
			out[li] = 1
			continue
		}
		max := 0
		for _, chunk := range shards[li] {
			if len(chunk) > max {
				max = len(chunk)
			}
		}
		out[li] = float64(max) * float64(nShards) / float64(len(lvl))
	}
	return out
}

// --- Runtime ---

// partQ is one shard's round queue, padded to its own cache line so
// per-shard claim counters and wake appends never false-share. While a
// queue is the current round, pos is the claim cursor; while it is the
// next round, mu guards wake appends.
type partQ struct {
	mu  sync.Mutex
	buf []*Base
	pos atomic.Int64
	_   [24]byte
}

// partTask is one dispatch to a pool worker: run executor exec of phase
// ph. The executor count is per phase (capped at GOMAXPROCS), so the
// index cannot be baked into the worker goroutine.
type partTask struct {
	ph   *partPhase
	fn   func(int) // when non-nil: plain data-parallel call instead of a phase
	exec int
}

// partPool is the persistent worker pool behind partitioned drain
// phases. Unlike workerPool it is dispatched once per phase, not once
// per round: workers stay inside the phase across rounds, joining at a
// hybrid spin-then-block barrier.
type partPool struct {
	n       int // session worker count (pool holds n-1 goroutines)
	nShards int
	tasks   chan partTask
	stop    sync.Once
	ph      partPhase // reused; the stepping goroutine is the only phase starter
	waveOut [][]int32 // per-executor wavefront scratch (residue batches)
}

// partPhase is one drain phase: barrier-synchronized rounds over the
// per-shard queues, optionally preceded by a sharded level-default
// prelude. Reused across phases by the single stepping caller.
type partPhase struct {
	sim  *Sim
	pool *partPool
	k    int     // live executors this phase
	cur  []partQ // current round, claimed via pos
	next []partQ // wakes during the round, appended under mu

	// Level-default prelude (sweepPartitioned): per-shard conn ids to
	// default before the first reactive round. Nil for plain drains.
	defIDs  [][]int32
	defKind SigKind

	// Hybrid barrier: arrivals counted atomically; the last arriver
	// advances the phase (advance) and bumps gen under mu so blocked
	// waiters cannot miss the broadcast. Spinners watch gen directly.
	arrived atomic.Int32
	gen     atomic.Uint32
	over    atomic.Bool
	spin    int
	mu      sync.Mutex
	cond    *sync.Cond

	wg      sync.WaitGroup
	panicMu sync.Mutex
	panicV  any
}

func newPartPool(workers, nShards int) *partPool {
	pp := &partPool{n: workers, nShards: nShards, tasks: make(chan partTask, workers)}
	pp.ph.pool = pp
	pp.ph.cond = sync.NewCond(&pp.ph.mu)
	pp.ph.cur = make([]partQ, nShards)
	pp.ph.next = make([]partQ, nShards)
	pp.waveOut = make([][]int32, workers)
	for i := 0; i < workers-1; i++ {
		go pp.worker()
	}
	return pp
}

func (pp *partPool) worker() {
	for t := range pp.tasks {
		if t.fn != nil {
			pp.runSafe(t.ph, func() { t.fn(t.exec) })
		} else {
			pp.exec(t.ph, t.exec)
		}
		t.ph.wg.Done()
	}
}

// close releases the workers. Safe to call more than once.
func (pp *partPool) close() {
	pp.stop.Do(func() { close(pp.tasks) })
}

// executors returns the live executor count for the next phase: the
// session's worker count capped at GOMAXPROCS. Spinning more executors
// than the host can run concurrently only adds barrier latency, so an
// 8-worker session on a 1-core host runs its phases sequentially — same
// results, no regression.
func (pp *partPool) executors() int {
	k := pp.n
	if g := runtime.GOMAXPROCS(0); g < k {
		k = g
	}
	if k < 1 {
		k = 1
	}
	return k
}

// runPhase executes one drain phase to quiescence on k executors (the
// caller is executor 0) and re-raises any handler panic on the caller.
func (pp *partPool) runPhase(s *Sim, k int) {
	ph := &pp.ph
	ph.sim = s
	ph.k = k
	ph.over.Store(false)
	ph.arrived.Store(0)
	ph.spin = 0
	if runtime.GOMAXPROCS(0) >= k {
		ph.spin = 4096 // cores to spare: resolve the barrier without a futex trip
	}
	ph.wg.Add(k - 1)
	for e := 1; e < k; e++ {
		pp.tasks <- partTask{ph: ph, exec: e}
	}
	pp.exec(ph, 0)
	ph.wg.Wait()
	ph.sim = nil
	ph.defIDs = nil
	if v := ph.panicV; v != nil {
		ph.panicV = nil
		panic(v)
	}
}

// do runs fn(e) for e in [0, k) across the pool — the plain
// data-parallel primitive behind residue wavefront batches. The caller
// runs executor 0; panics re-raise on the caller.
func (pp *partPool) do(k int, fn func(int)) {
	ph := &pp.ph
	ph.wg.Add(k - 1)
	for e := 1; e < k; e++ {
		pp.tasks <- partTask{ph: ph, fn: fn, exec: e}
	}
	pp.runSafe(ph, func() { fn(0) })
	ph.wg.Wait()
	if v := ph.panicV; v != nil {
		ph.panicV = nil
		panic(v)
	}
}

// exec is one executor's phase loop: optional level-default prelude,
// then claim-and-react rounds until the barrier reports quiescence.
func (pp *partPool) exec(ph *partPhase, e int) {
	if ph.defIDs != nil {
		pp.runSafe(ph, func() { ph.applyShardDefaults(e) })
		if pp.barrier(ph) {
			return
		}
	}
	for {
		pp.runSafe(ph, func() { ph.runRound(e) })
		if pp.barrier(ph) {
			return
		}
	}
}

// runSafe runs fn, capturing a handler panic for re-raise on the
// stepping goroutine. The panicking executor first drains the rest of
// the current round — claiming every remaining entry and clearing its
// scheduled flag without running it — so no instance is left marked
// scheduled-but-never-run, which would make the next Step's wake
// broadcast skip it forever.
func (pp *partPool) runSafe(ph *partPhase, fn func()) {
	defer func() {
		if e := recover(); e != nil {
			ph.panicMu.Lock()
			if ph.panicV == nil {
				ph.panicV = e
			}
			ph.panicMu.Unlock()
			ph.drainCur()
		}
	}()
	fn()
}

// drainCur claims everything left in the current round and clears the
// scheduled flags without reacting — the panic-path cleanup.
func (ph *partPhase) drainCur() {
	for sh := range ph.cur {
		q := &ph.cur[sh]
		n := int64(len(q.buf))
		for {
			i := q.pos.Add(1) - 1
			if i >= n {
				break
			}
			atomic.StoreUint32(&q.buf[i].scheduled, 0)
		}
	}
}

// barrier joins the end-of-round barrier. The last arriver advances the
// phase; everyone returns whether the phase is over. Waiters spin on
// the generation counter while cores are plentiful, then park on the
// condition variable (the generation bump happens under mu, so a waiter
// that checked the generation before parking cannot miss it).
func (pp *partPool) barrier(ph *partPhase) bool {
	g := ph.gen.Load()
	if int(ph.arrived.Add(1)) == ph.k {
		ph.advance()
		ph.arrived.Store(0)
		ph.mu.Lock()
		ph.gen.Add(1)
		ph.mu.Unlock()
		ph.cond.Broadcast()
		return ph.over.Load()
	}
	for i := 0; i < ph.spin; i++ {
		if ph.gen.Load() != g {
			return ph.over.Load()
		}
	}
	ph.mu.Lock()
	for ph.gen.Load() == g {
		ph.cond.Wait()
	}
	ph.mu.Unlock()
	return ph.over.Load()
}

// advance rotates the round buffers: the wakes collected during the
// finished round become the next round's claim queues. Runs on exactly
// one executor (the last barrier arriver) while every other executor is
// blocked at the barrier, so plain access to the phase state is safe.
func (ph *partPhase) advance() {
	ph.defIDs = nil // prelude, if any, has run
	ph.cur, ph.next = ph.next, ph.cur
	total := 0
	for i := range ph.cur {
		ph.cur[i].pos.Store(0)
		total += len(ph.cur[i].buf)
	}
	for i := range ph.next {
		ph.next[i].buf = ph.next[i].buf[:0]
	}
	if ph.panicV != nil {
		// Abandon the phase: nothing further runs, but every woken
		// instance must have its scheduled flag cleared or a restarted
		// session would never wake it again.
		for i := range ph.cur {
			for _, b := range ph.cur[i].buf {
				atomic.StoreUint32(&b.scheduled, 0)
			}
			ph.cur[i].buf = ph.cur[i].buf[:0]
		}
		ph.over.Store(true)
		return
	}
	if total == 0 {
		ph.over.Store(true)
		return
	}
	if m := ph.sim.metrics; m != nil {
		m.rounds.Add(1)
		m.roundSize.Observe(float64(total))
	}
}

// wake appends a woken instance to its shard's next-round queue. With a
// connectivity-grown partition the waker almost always owns the shard,
// so the mutex is uncontended — the partitioned engine's replacement
// for the flat engine's global wake mutex.
func (ph *partPhase) wake(b *Base, sh int32) {
	q := &ph.next[sh]
	q.mu.Lock()
	q.buf = append(q.buf, b)
	q.mu.Unlock()
}

// runRound claims and reacts the current round: own shards first
// (executor e owns shards ≡ e mod k), then a steal sweep over everyone
// else's leftovers.
func (ph *partPhase) runRound(e int) {
	k := ph.k
	ns := len(ph.cur)
	for sh := e; sh < ns; sh += k {
		ph.claimShard(sh, false)
	}
	for sh := 0; sh < ns; sh++ {
		if sh%k != e {
			ph.claimShard(sh, true)
		}
	}
}

func (ph *partPhase) claimShard(sh int, steal bool) {
	q := &ph.cur[sh]
	n := int64(len(q.buf))
	if q.pos.Load() >= n {
		return
	}
	s := ph.sim
	for {
		i := q.pos.Add(1) - 1
		if i >= n {
			return
		}
		b := q.buf[i]
		atomic.StoreUint32(&b.scheduled, 0)
		if steal {
			s.stealCount.Add(1)
			if m := s.metrics; m != nil {
				m.steals.Add(1)
			}
		}
		s.runReact(b)
	}
}

// applyShardDefaults is the level prelude: each executor applies the
// still-Unknown defaults of its shards' chunk of the level. Defaults
// within one level are mutually independent (every dependency lives in
// a strictly earlier level), so the set applied is exactly the set the
// sequential sweep would apply.
func (ph *partPhase) applyShardDefaults(e int) {
	s := ph.sim
	k := ph.defKind
	for sh := e; sh < len(ph.defIDs); sh += ph.k {
		for _, id := range ph.defIDs[sh] {
			c := s.conns[id]
			if c.status(k) == Unknown {
				s.applyDefault(c, k)
			}
		}
	}
}

// --- Sim-side entry points ---

// drainPartitioned runs the queued wakes to quiescence as one
// partitioned phase: the queue is split by instance shard, the pool is
// dispatched once, and rounds rotate at the phase barrier.
func (s *Sim) drainPartitioned() {
	pp := s.ppool
	ph := &pp.ph
	shard := s.part.instShard
	total := len(s.queue) - s.qhead
	for _, b := range s.queue[s.qhead:] {
		q := &ph.cur[shard[b.id]]
		q.buf = append(q.buf, b)
	}
	s.queue = s.queue[:0]
	s.qhead = 0
	for i := range ph.cur {
		ph.cur[i].pos.Store(0)
	}
	if m := s.metrics; m != nil {
		m.rounds.Add(1)
		m.roundSize.Observe(float64(total))
	}
	s.par = true
	defer func() { s.par = false }()
	pp.runPhase(s, pp.executors())
}

// applyDefaultsPartitioned is the partitioned default-control phase:
// the levelized sweep with per-level sharding and barriers, and the
// residue as a parallel wavefront when compile time proved it safe.
func (s *Sim) applyDefaultsPartitioned() {
	sc := s.schedule
	pt := s.part
	s.sweepPartitioned(SigData, sc.fwdLevels, pt.fwdLevelShards)
	s.residuePartitioned(SigData, sc.fwdResidue, sc.fwdDeps, sc.fwdDependents, pt.fwdWavefront)
	s.sweepPartitioned(SigEnable, sc.fwdLevels, pt.fwdLevelShards)
	s.residuePartitioned(SigEnable, sc.fwdResidue, sc.fwdDeps, sc.fwdDependents, pt.fwdWavefront)
	s.sweepPartitioned(SigAck, sc.ackLevels, pt.ackLevelShards)
	s.residuePartitioned(SigAck, sc.ackResidue, sc.ackDeps, sc.ackDependents, pt.ackWavefront)
}

// sweepPartitioned applies defaults level by level. Levels large enough
// to amortize a dispatch run as a sharded phase — per-shard default
// chunks, then reactive rounds, joined at the phase barrier; smaller
// levels run exactly like the levelized engine's sweep.
func (s *Sim) sweepPartitioned(k SigKind, levels [][]int32, shards [][][]int32) {
	n := len(s.conns)
	for li, lvl := range levels {
		if s.resolved[k] == n {
			return // fully resolved by reactions (single-worker sessions)
		}
		if s.ppool == nil || len(lvl) < s.parMin {
			applied := false
			for _, id := range lvl {
				c := s.conns[id]
				if c.status(k) == Unknown {
					s.applyDefault(c, k)
					applied = true
				}
			}
			if applied {
				s.drain()
			}
			continue
		}
		s.runLevelPhase(k, shards[li])
	}
}

// runLevelPhase runs one level as a partitioned phase: the sharded
// default prelude, then reactive rounds to quiescence.
func (s *Sim) runLevelPhase(k SigKind, shardIDs [][]int32) {
	pp := s.ppool
	ph := &pp.ph
	ph.defIDs = shardIDs
	ph.defKind = k
	s.par = true
	defer func() { s.par = false }()
	pp.runPhase(s, pp.executors())
}

// residuePartitioned resolves the cyclic residue: as a parallel
// ready-set wavefront when the compile-time handler-free proof holds,
// otherwise on the same sequential worklist as the levelized engine
// (reactive handlers adjacent to the residue may interleave with
// defaults, and only the one-at-a-time order reproduces the sequential
// engine's interleaving bit-exactly).
func (s *Sim) residuePartitioned(k SigKind, ids []int32, deps, dependents [][]int32, wavefront bool) {
	if wavefront && s.ppool != nil {
		s.runResidueWavefront(k, ids, deps, dependents)
		return
	}
	s.runResidue(k, ids, deps, dependents)
}

// runResidueWavefront is the handler-free residue: the worklist's ready
// set is materialized wave by wave and each wave's defaults are applied
// in parallel. With no reactive endpoints, defaults cannot cascade
// through handlers: the dependency closure (and hence every wave, the
// stall set, and the break sites) is order-independent, so values and
// metric counts match the sequential worklist bit-exactly.
func (s *Sim) runResidueWavefront(k SigKind, ids []int32, deps, dependents [][]int32) {
	if len(ids) == 0 || s.resolved[k] == len(s.conns) {
		return
	}
	if s.schedRemaining == nil {
		s.schedRemaining = make([]int32, len(s.conns))
	}
	pending := 0
	ready := s.schedReady[:0]
	for _, id := range ids {
		c := s.conns[id]
		if c.status(k) != Unknown {
			s.schedRemaining[id] = -1
			continue
		}
		n := int32(0)
		for _, d := range deps[id] {
			if s.conns[d].status(k) == Unknown {
				n++
			}
		}
		s.schedRemaining[id] = n
		pending++
		if n == 0 {
			ready = append(ready, id)
		}
	}
	m := s.metrics
	var wave []int32
	for pending > 0 {
		if len(ready) == 0 {
			// Stall: a genuine cycle. Break at the lowest-id unresolved
			// connection — the same site every other engine picks, since
			// the exhausted closure leaves the same Unknown set.
			var c *Conn
			for _, id := range ids {
				if s.conns[id].status(k) == Unknown {
					c = s.conns[id]
					break
				}
			}
			if m != nil {
				m.breaks[k].Add(1)
				m.iters.Add(1)
			}
			s.applyDefault(c, k)
			s.schedRemaining[c.id] = -1
			pending--
			for _, d := range dependents[c.id] {
				if s.schedRemaining[d] > 0 {
					s.schedRemaining[d]--
					if s.schedRemaining[d] == 0 {
						ready = append(ready, d)
					}
				}
			}
			continue
		}
		wave, ready = ready, wave[:0]
		pending -= len(wave)
		if m != nil {
			m.iters.Add(uint64(len(wave)))
		}
		pp := s.ppool
		nw := 0
		if pp != nil && len(wave) >= s.parMin {
			nw = pp.executors()
		}
		if nw < 2 {
			for _, id := range wave {
				c := s.conns[id]
				s.applyDefault(c, k)
				s.schedRemaining[id] = -1
				for _, d := range dependents[id] {
					if s.schedRemaining[d] > 0 {
						s.schedRemaining[d]--
						if s.schedRemaining[d] == 0 {
							ready = append(ready, d)
						}
					}
				}
			}
			continue
		}
		// Parallel wave: even chunks, atomic dependency decrements,
		// per-executor next-wave buffers folded back in executor order.
		chunk := (len(wave) + nw - 1) / nw
		batch := wave
		pp.do(nw, func(e int) {
			lo := e * chunk
			hi := lo + chunk
			if hi > len(batch) {
				hi = len(batch)
			}
			out := pp.waveOut[e][:0]
			for _, id := range batch[lo:hi] {
				c := s.conns[id]
				s.applyDefault(c, k)
				atomic.StoreInt32(&s.schedRemaining[id], -1)
				for _, d := range dependents[id] {
					if atomic.AddInt32(&s.schedRemaining[d], -1) == 0 {
						out = append(out, d)
					}
				}
			}
			pp.waveOut[e] = out
		})
		for e := 0; e < nw; e++ {
			ready = append(ready, pp.waveOut[e]...)
		}
	}
	s.schedReady = ready[:0]
}
