package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
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
