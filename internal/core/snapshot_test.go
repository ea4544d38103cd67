package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestRestoreChecksEveryStatusLane: a snapshot with the program's
// fingerprint whose data, enable or ack lane is one cell short or long is
// refused, not silently truncated or padded by copy. The untouched blob,
// re-encoded the same way, restores.
func TestRestoreChecksEveryStatusLane(t *testing.T) {
	prog, err := Compile(progTestAssemble)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := prog.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	craft := func(k SigKind, delta int) []byte {
		var snap snapshotFile
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		lane := snap.Status[k]
		if delta < 0 {
			snap.Status[k] = lane[:len(lane)+delta]
		} else {
			snap.Status[k] = append(lane, make([]uint32, delta)...)
		}
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	restored, err := prog.Restore(bytes.NewReader(craft(SigAck, 0)))
	if err != nil {
		t.Fatalf("re-encoded snapshot refused: %v", err)
	}
	restored.Close()
	for _, k := range []SigKind{SigData, SigEnable, SigAck} {
		for _, delta := range []int{-1, 1} {
			t.Run(fmt.Sprintf("%s%+d", k, delta), func(t *testing.T) {
				if _, err := prog.Restore(bytes.NewReader(craft(k, delta))); err == nil {
					t.Fatalf("restore accepted a %s lane %+d cell(s) off the conn count", k, delta)
				}
			})
		}
	}
}

// slot is a struct element of ckptModule's declared slice; gob omits its
// zero fields from the stream.
type slot struct {
	V     int
	Ready uint64
}

// ckptModule starts with a non-zero slot and clears it at the end of
// cycle 0, so from then on its declared state is one all-zero slot.
type ckptModule struct {
	Base
	slots []slot
}

// TestRestoreReplacesDeclaredState: Restore replaces each declared field
// with what was saved, even where the restored session's constructor left
// a value the saved stream omits as zero; Checkpoint refuses a
// non-pointer and a second declaration, naming the instance; a version-1
// header is refused.
func TestRestoreReplacesDeclaredState(t *testing.T) {
	var mod *ckptModule
	prog, err := Compile(func(b *Builder) error {
		m := &ckptModule{slots: []slot{{V: 7, Ready: 3}}}
		m.Init("ckpt", m)
		m.Checkpoint(&m.slots)
		m.OnCycleEnd(func() { m.slots[0] = slot{} })
		mod = m
		b.Add(m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := prog.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := prog.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
	if want := []slot{{}}; !reflect.DeepEqual(mod.slots, want) {
		t.Fatalf("restored slots %+v, want the saved %+v", mod.slots, want)
	}

	for name, declare := range map[string]func(*ckptModule){
		"non-pointer": func(m *ckptModule) { m.Checkpoint(m.slots) },
		"twice":       func(m *ckptModule) { m.Checkpoint(); m.Checkpoint(&m.slots) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				ce, ok := recover().(*ContractError)
				if !ok || ce.Where != "bad" {
					t.Fatalf("recovered %v, want a *ContractError at bad", ce)
				}
			}()
			m := &ckptModule{}
			m.Init("bad", m)
			declare(m)
		})
	}

	t.Run("version-1", func(t *testing.T) {
		var snap snapshotFile
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		snap.Version = 1
		var v1 bytes.Buffer
		if err := gob.NewEncoder(&v1).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		if _, err := prog.Restore(&v1); err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("restore of a version-1 header: err %v, want a refusal naming version 1", err)
		}
	})
}
