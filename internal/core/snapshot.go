package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
)

// snapshot.go is deterministic checkpoint/restore for a session. A
// snapshot captures everything behavioral about a Sim at a cycle
// boundary — the cycle counter, the dense status lanes, every instance's
// serialized state, per-instance RNG stream positions and the statistics
// set — keyed by the program's structural fingerprint.
// Program.Restore stamps a fresh session and replays that state into it;
// the restored run then produces bit-identical per-cycle signal
// resolutions to the uninterrupted one (the root differential harness
// restores every model that snapshots, in and across engines).
//
// The data lane is deliberately not serialized: its values are
// arbitrary Go data. Restore instead forces the next Step to run a full
// sweep (the sparse scheduler's cycle-0 behavior), which re-derives every
// closed cluster's settled resolution from the restored instance state —
// bit-identical to the replay, since a full sweep and a replayed
// cycle resolve the same values by construction.
//
// RNG determinism: each instance's rand stream is a counted source
// (countingSource); the snapshot records how many draws each stream has
// produced, and Restore fast-forwards a fresh identically-seeded source
// by that count. Both Int63 and Uint64 advance the underlying generator
// exactly one step, so the count pins the stream position exactly. (The
// one exception is rand.Rand.Read, which buffers partial words inside
// rand.Rand where the counter cannot see them; module code drawing
// bytes across a snapshot boundary is outside the determinism contract.)

// Stateful is implemented by module instances that support checkpoint/
// restore. MarshalState returns the instance's mutable behavioral state
// (typically gob- or hand-encoded); UnmarshalState replaces the
// instance's state with a previously marshaled blob. A stateless module
// with handlers implements the interface by returning (nil, nil) — the
// explicit opt-in distinguishes "no state to save" from "not
// checkpoint-safe". Instances without any lifecycle handlers hold no
// behavioral state by construction and are checkpointed implicitly.
type Stateful interface {
	MarshalState() ([]byte, error)
	UnmarshalState(data []byte) error
}

const snapMagic = "lse-snapshot"

// snapHist mirrors Histogram's accumulator fields for encoding.
type snapHist struct {
	Count    int64
	Sum      float64
	Min, Max float64
	Buckets  [histBuckets]int64
}

// snapshotFile is the gob-encoded checkpoint layout.
type snapshotFile struct {
	Magic       string
	Version     int
	Fingerprint uint64
	Cycle       uint64
	Seed        int64
	SpillHits   uint64
	Status      [3][]uint32 // dense status lanes, by conn id
	RngN        []uint64    // per-instance RNG draw counts, by instance id
	Inst        [][]byte    // per-instance marshaled state, by instance id
	Counters    map[string]int64
	Hists       map[string]snapHist
}

// Snapshot writes a deterministic checkpoint of the session to w. It may
// only be taken between cycles (outside Step); taking one mid-cycle is a
// contract error. Every instance with lifecycle handlers must implement
// Stateful, or Snapshot refuses with an error naming the first that does
// not — the same instance at every cycle.
func (s *Sim) Snapshot(w io.Writer) error {
	if s.phase != phaseIdle {
		return &ContractError{Op: "snapshot", Where: "sim",
			Detail: "snapshots may only be taken between cycles, not from inside a handler"}
	}
	// Refuse before marshalling anything, so a model that can never
	// checkpoint is refused the same way, naming the same instance, at
	// every cycle — not by whichever state fails to encode first.
	for _, b := range s.bases {
		if _, ok := b.self.(Stateful); !ok && (b.react != nil || b.start != nil || b.end != nil) {
			return &ContractError{Op: "snapshot", Where: b.name,
				Detail: "instance has lifecycle handlers but does not implement core.Stateful; cannot checkpoint"}
		}
	}
	snap := snapshotFile{
		Magic:       snapMagic,
		Version:     1,
		Fingerprint: s.prog.fingerprint,
		Cycle:       s.cycle,
		Seed:        s.seed,
		SpillHits:   s.spillHits.Load(),
		RngN:        make([]uint64, len(s.bases)),
		Inst:        make([][]byte, len(s.bases)),
	}
	// The plane is conn-id keyed, which is the snapshot's layout: the
	// lanes copy out as they are.
	for k := range snap.Status {
		snap.Status[k] = append([]uint32(nil), s.plane.lanes[k]...)
	}
	for i, b := range s.bases {
		snap.RngN[i] = b.rsrc.n
		st, ok := b.self.(Stateful)
		if !ok {
			continue // handler-less instances (composites, pass-throughs) hold no behavioral state
		}
		data, err := st.MarshalState()
		if err != nil {
			return fmt.Errorf("snapshot: marshal %s: %w", b.name, err)
		}
		snap.Inst[i] = data
	}
	snap.Counters, snap.Hists = s.stats.export()
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	return nil
}

// Restore stamps a fresh session from the program and replays the
// checkpoint read from r into it: cycle counter, signal lanes, instance
// state, RNG stream positions and statistics. Session options (tracers,
// metrics) apply to the new session; the seed always
// comes from the snapshot, since the RNG streams derive from it. The
// snapshot must have been taken from a program with the same structural
// fingerprint. The restored session's next Step runs a full sweep, so
// its subsequent per-cycle resolutions are bit-identical to the
// uninterrupted run's.
func (p *Program) Restore(r io.Reader, opts ...BuildOption) (*Sim, error) {
	var snap snapshotFile
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("restore: decode: %w", err)
	}
	if snap.Magic != snapMagic || snap.Version != 1 {
		return nil, fmt.Errorf("restore: not a version-1 %s stream", snapMagic)
	}
	if snap.Fingerprint != p.fingerprint {
		return nil, &BuildError{Op: "restore", Where: "program",
			Detail: "snapshot was taken from a structurally different program (fingerprint mismatch)"}
	}
	s, err := p.NewSim(append(append([]BuildOption(nil), opts...), WithSeed(snap.Seed))...)
	if err != nil {
		return nil, err
	}
	shapeOK := len(snap.RngN) == len(s.bases) && len(snap.Inst) == len(s.bases)
	for _, lane := range snap.Status {
		shapeOK = shapeOK && len(lane) == len(s.conns)
	}
	if !shapeOK {
		s.Close()
		return nil, fmt.Errorf("restore: snapshot shape does not match the program's netlist")
	}
	for k := range snap.Status {
		copy(s.plane.lanes[k], snap.Status[k])
	}
	s.cycle = snap.Cycle
	s.spillHits.Store(snap.SpillHits)
	// Between cycles the data lane reads as released; its values are not
	// in the snapshot and are re-derived by the full sweep the next Step
	// runs.
	s.released = true
	s.needFull = true
	for i, b := range s.bases {
		// Fast-forward the stream through the counting wrapper so the
		// draw count advances with it.
		for b.rsrc.n < snap.RngN[i] {
			b.rsrc.Uint64()
		}
		data := snap.Inst[i]
		if data == nil {
			continue
		}
		st, ok := b.self.(Stateful)
		if !ok {
			s.Close()
			return nil, fmt.Errorf("restore: snapshot carries state for %s, which does not implement core.Stateful", b.name)
		}
		if err := st.UnmarshalState(data); err != nil {
			s.Close()
			return nil, fmt.Errorf("restore: unmarshal %s: %w", b.name, err)
		}
	}
	// Statistics restore before the first cycle, so modules that lazily
	// re-fetch counters by name pick up the restored accumulators.
	s.stats.restore(snap.Counters, snap.Hists)
	return s, nil
}

// countingSource wraps a math/rand source, counting draws so Snapshot
// can record each instance's stream position. rand.NewSource's concrete
// source implements Source64; both Int63 and Uint64 advance it exactly
// one internal step, so the draw count alone pins the position.
//
// The underlying source is seeded on the first draw, not at attach:
// seeding math/rand's 607-word generator dominates the cost of stamping a
// session, and most instances (queues, routes, arbiters, links) never
// draw. The stream is the same either way.
type countingSource struct {
	seed int64
	src  rand.Source64 // nil until the first draw
	n    uint64
}

func (c *countingSource) source() rand.Source64 {
	if c.src == nil {
		c.src = rand.NewSource(c.seed).(rand.Source64)
	}
	return c.src
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.source().Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.source().Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.seed, c.n = seed, 0
	if c.src != nil {
		c.src.Seed(seed)
	}
}

// export copies the statistics accumulators into plain encodable maps.
func (s *StatSet) export() (map[string]int64, map[string]snapHist) {
	s.mu.Lock()
	defer s.mu.Unlock()
	counters := make(map[string]int64, len(s.counts))
	for name, c := range s.counts {
		counters[name] = c.Value()
	}
	hists := make(map[string]snapHist, len(s.hists))
	for name, h := range s.hists {
		h.mu.Lock()
		hists[name] = snapHist{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: h.buckets}
		h.mu.Unlock()
	}
	return counters, hists
}

// restore loads the checkpointed values into the named accumulators,
// reusing any accumulator a module constructor already registered (its
// cached pointer must stay live) and creating the rest; modules that
// fetch stats lazily by name on their first cycle then pick up the
// restored accumulators either way.
func (s *StatSet) restore(counters map[string]int64, hists map[string]snapHist) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, v := range counters {
		c, ok := s.counts[name]
		if !ok {
			c = &Counter{}
			s.counts[name] = c
		}
		c.v.Store(v)
	}
	for name, sh := range hists {
		h, ok := s.hists[name]
		if !ok {
			h = &Histogram{}
			s.hists[name] = h
		}
		h.mu.Lock()
		h.count, h.sum, h.min, h.max, h.buckets = sh.Count, sh.Sum, sh.Min, sh.Max, sh.Buckets
		h.mu.Unlock()
	}
}
