package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// rngModule draws from its instance stream on the cycles its script
// says and records the draws; it declares no checkpoint state, so a
// restored twin records only what it draws after the checkpoint.
type rngModule struct {
	Base
	every uint64 // draw on the last of every `every` cycles; 0 = never
	drawn []int64
}

func newRngModule(name string, every uint64) *rngModule {
	m := &rngModule{every: every}
	m.Init(name, m)
	m.Checkpoint()
	m.OnCycleStart(func() {
		if m.every > 0 && m.Now()%m.every == m.every-1 {
			m.drawn = append(m.drawn, m.Rand().Int63(), int64(m.Rand().Uint64()>>1))
		}
	})
	return m
}

func rngAssemble(mods *[]*rngModule) func(*Builder) error {
	return func(b *Builder) error {
		*mods = (*mods)[:0]
		for _, m := range []*rngModule{newRngModule("often", 1), newRngModule("late", 7), newRngModule("never", 0)} {
			b.Add(m)
			*mods = append(*mods, m)
		}
		return nil
	}
}

// TestLazyRngStreamIdentical: an instance's stream, seeded on first draw,
// is the stream of a source seeded eagerly with the same value — through
// Int63, Uint64, the rand.Rand helpers and a reseed.
func TestLazyRngStreamIdentical(t *testing.T) {
	var mods []*rngModule
	b := NewBuilder(WithSeed(42))
	if err := rngAssemble(&mods)(b); err != nil {
		t.Fatal(err)
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	m := mods[0]
	if m.rsrc.src != nil {
		t.Fatal("attach seeded the source before any draw")
	}
	eager := rand.New(rand.NewSource(m.rsrc.seed))
	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			if got, want := m.Rand().Int63(), eager.Int63(); got != want {
				t.Fatalf("draw %d: Int63 %d, eager source %d", i, got, want)
			}
		case 1:
			if got, want := m.Rand().Uint64(), eager.Uint64(); got != want {
				t.Fatalf("draw %d: Uint64 %d, eager source %d", i, got, want)
			}
		case 2:
			if got, want := m.Rand().Float64(), eager.Float64(); got != want {
				t.Fatalf("draw %d: Float64 %v, eager source %v", i, got, want)
			}
		default:
			if got, want := m.Rand().Intn(1000), eager.Intn(1000); got != want {
				t.Fatalf("draw %d: Intn %d, eager source %d", i, got, want)
			}
		}
	}
	// Reseeding, before and after the first draw, restarts the stream and
	// the draw count.
	for _, mod := range []*rngModule{m, mods[2]} {
		mod.Rand().Seed(7)
		if mod.rsrc.n != 0 {
			t.Fatalf("%s: reseed left the draw count at %d", mod.name, mod.rsrc.n)
		}
		reseeded := rand.New(rand.NewSource(7))
		for i := 0; i < 100; i++ {
			if got, want := mod.Rand().Int63(), reseeded.Int63(); got != want {
				t.Fatalf("%s: draw %d after reseed: %d, eager source %d", mod.name, i, got, want)
			}
		}
	}
}

// TestLazyRngSnapshotMidStream: a checkpoint taken while one instance is
// mid-stream, one has yet to draw and one never will restores to the
// same continuation, and never-drawn streams stay unseeded and count 0.
func TestLazyRngSnapshotMidStream(t *testing.T) {
	var mods []*rngModule
	prog, err := Compile(rngAssemble(&mods), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prog.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refMods := append([]*rngModule(nil), mods...)
	if err := ref.Run(5); err != nil { // "late" first draws in cycle 6
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ref.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if refMods[1].rsrc.src != nil || refMods[2].rsrc.src != nil {
		t.Fatal("instances that have not drawn were seeded")
	}
	restored, err := prog.Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	resMods := append([]*rngModule(nil), mods...)
	if n := resMods[0].rsrc.n; n != 10 {
		t.Fatalf("restored draw count of the drawing instance is %d, want 10", n)
	}
	if resMods[1].rsrc.src != nil || resMods[2].rsrc.src != nil || resMods[2].rsrc.n != 0 {
		t.Fatal("restore seeded or advanced a stream that had not drawn")
	}
	if err := ref.Run(20); err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(20); err != nil {
		t.Fatal(err)
	}
	for i := range refMods {
		want := refMods[i].drawn
		if i == 0 {
			want = want[10:] // the restored twin starts after the checkpoint
		}
		got := resMods[i].drawn
		if len(got) != len(want) {
			t.Fatalf("%s: restored run drew %d values, uninterrupted run %d", refMods[i].name, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s: draw %d after restore is %d, uninterrupted run drew %d", refMods[i].name, j, got[j], want[j])
			}
		}
	}
	if refMods[2].rsrc.src != nil {
		t.Fatal("an instance that never draws was seeded")
	}
}
