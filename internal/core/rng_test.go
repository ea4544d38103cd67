package core

import (
	"bytes"
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
			m.drawn = append(m.drawn, m.Rand().Int64(), int64(m.Rand().Uint64()>>1))
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

// TestRngSnapshotMidStream: a checkpoint taken while one instance is
// mid-stream, one has yet to draw and one never will restores each
// stream's word as it was and continues every stream the same way.
func TestRngSnapshotMidStream(t *testing.T) {
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
	restored, err := prog.Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	resMods := append([]*rngModule(nil), mods...)
	for i := range refMods {
		if got, want := resMods[i].rs, refMods[i].rs; got != want {
			t.Fatalf("%s: restored stream word %#x, checkpointed %#x", refMods[i].name, got, want)
		}
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
}
