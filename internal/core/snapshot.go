package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
)

// snapshot.go is deterministic checkpoint/restore for a session. A
// snapshot captures everything behavioral about a Sim at a cycle
// boundary — the cycle counter, the dense status lanes, the fields every
// instance declared with Base.Checkpoint, each instance's random stream
// and the statistics set — keyed by the program's structural fingerprint.
// A random stream is one word of state (Base.Rand): the snapshot saves
// it and Restore sets it as it is, so restoring costs the same at any
// cycle.
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

// Checkpoint declares the instance's mutable simulation state: pointers
// to the fields Sim.Snapshot encodes and Program.Restore decodes, both in
// this one order, e.g. q.Checkpoint(&q.entries). A template calls it
// once, in its constructor; one whose behavior comes only from its
// parameters and the cycle's signals calls it with no fields. Snapshot
// refuses an instance with lifecycle handlers that never called it.
// Fields travel through encoding/gob: a concrete type boxed in an
// any-typed field must be gob.Register'ed, and a struct element's fields
// must be exported. A second call, or a non-pointer or nil argument, is a
// contract violation.
func (b *Base) Checkpoint(fields ...any) {
	if b.declared {
		contractPanic("checkpoint", b.name, "state declared twice")
	}
	for _, f := range fields {
		if v := reflect.ValueOf(f); v.Kind() != reflect.Pointer || v.IsNil() {
			contractPanic("checkpoint", b.name, fmt.Sprintf("declared field %T is not a non-nil pointer", f))
		}
	}
	b.state, b.declared = fields, true
}

const (
	snapMagic   = "lse-snapshot"
	snapVersion = 3 // 2: instance state is the declared Checkpoint fields; 3: Rng holds stream states
)

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
	Rng         []uint64    // per-instance random stream states, by instance id
	Inst        [][]byte    // per-instance marshaled state, by instance id
	Counters    map[string]int64
	Hists       map[string]snapHist
}

// Snapshot writes a deterministic checkpoint of the session to w. It may
// only be taken between cycles (outside Step); taking one mid-cycle is a
// contract error. Every instance with lifecycle handlers must have
// declared its state with Base.Checkpoint, or Snapshot refuses with an
// error naming the first that did not — the same instance at every cycle.
func (s *Sim) Snapshot(w io.Writer) error {
	if s.phase != phaseIdle {
		return &ContractError{Op: "snapshot", Where: "sim",
			Detail: "snapshots may only be taken between cycles, not from inside a handler"}
	}
	// Refuse before encoding anything, so a model that can never
	// checkpoint is refused the same way, naming the same instance, at
	// every cycle — not by whichever state fails to encode first.
	for _, b := range s.bases {
		if !b.declared && (b.react != nil || b.start != nil || b.end != nil) {
			return &ContractError{Op: "snapshot", Where: b.name,
				Detail: "instance has lifecycle handlers but declared no state with Base.Checkpoint; cannot checkpoint"}
		}
	}
	snap := snapshotFile{
		Magic:       snapMagic,
		Version:     snapVersion,
		Fingerprint: s.prog.fingerprint,
		Cycle:       s.cycle,
		Seed:        s.seed,
		SpillHits:   s.spillHits.Load(),
		Rng:         make([]uint64, len(s.bases)),
		Inst:        make([][]byte, len(s.bases)),
	}
	// The plane is conn-id keyed, which is the snapshot's layout: the
	// lanes copy out as they are.
	for k := range snap.Status {
		snap.Status[k] = append([]uint32(nil), s.plane.lanes[k]...)
	}
	for i, b := range s.bases {
		snap.Rng[i] = uint64(b.rs)
		if len(b.state) == 0 {
			continue
		}
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for _, f := range b.state {
			if err := enc.Encode(f); err != nil {
				return fmt.Errorf("snapshot: encode %s: %w", b.name, err)
			}
		}
		snap.Inst[i] = buf.Bytes()
	}
	snap.Counters, snap.Hists = s.stats.export()
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	return nil
}

// Restore stamps a fresh session from the program and replays the
// checkpoint read from r into it: cycle counter, signal lanes, declared
// instance state, random stream states and statistics. Session options
// (tracers, metrics) apply to the new session; the seed, like the
// stream states, always comes from the snapshot. The
// snapshot must have been taken from a program with the same structural
// fingerprint. The restored session's next Step runs a full sweep, so
// its subsequent per-cycle resolutions are bit-identical to the
// uninterrupted run's.
func (p *Program) Restore(r io.Reader, opts ...BuildOption) (*Sim, error) {
	var snap snapshotFile
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("restore: decode: %w", err)
	}
	if snap.Magic != snapMagic {
		return nil, fmt.Errorf("restore: not an %s stream", snapMagic)
	}
	if snap.Version != snapVersion {
		return nil, fmt.Errorf("restore: %s version %d is not supported (want version %d)", snapMagic, snap.Version, snapVersion)
	}
	if snap.Fingerprint != p.fingerprint {
		return nil, &BuildError{Op: "restore", Where: "program",
			Detail: "snapshot was taken from a structurally different program (fingerprint mismatch)"}
	}
	s, err := p.NewSim(append(append([]BuildOption(nil), opts...), WithSeed(snap.Seed))...)
	if err != nil {
		return nil, err
	}
	shapeOK := len(snap.Rng) == len(s.bases) && len(snap.Inst) == len(s.bases)
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
		b.rs = rngState(snap.Rng[i])
		if err := b.restoreState(snap.Inst[i]); err != nil {
			s.Close()
			return nil, fmt.Errorf("restore: %s: %w", b.name, err)
		}
	}
	// Statistics restore before the first cycle, so modules that lazily
	// re-fetch counters by name pick up the restored accumulators.
	s.stats.restore(snap.Counters, snap.Hists)
	return s, nil
}

// restoreState decodes the instance's declared fields from its blob, in
// declaration order. Each field is zeroed first: gob leaves a destination
// field alone when the stream omits it (it omits zero values), so a
// value the constructor left would otherwise survive a saved zero.
func (b *Base) restoreState(blob []byte) error {
	if len(b.state) == 0 {
		return nil
	}
	dec := gob.NewDecoder(bytes.NewReader(blob))
	for _, f := range b.state {
		reflect.ValueOf(f).Elem().SetZero()
		if err := dec.Decode(f); err != nil {
			return fmt.Errorf("decode declared state: %w", err)
		}
	}
	return nil
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
