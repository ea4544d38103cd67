package pcl

import "encoding/gob"

// Every pcl template declares its mutable state with core.Base.Checkpoint
// in its constructor; Sim.Snapshot encodes those fields with
// encoding/gob. Boxed (any-typed) payloads — queue entries, pending
// source items, delay-line contents — need their concrete types
// registered: the common primitives and the pcl memory messages are
// registered here, and a model that flows its own types through pcl
// templates must gob.Register them before calling Snapshot.
func init() {
	gob.Register(int(0))
	gob.Register(int8(0))
	gob.Register(int16(0))
	gob.Register(int32(0))
	gob.Register(int64(0))
	gob.Register(uint(0))
	gob.Register(uint8(0))
	gob.Register(uint16(0))
	gob.Register(uint32(0))
	gob.Register(uint64(0))
	gob.Register(float32(0))
	gob.Register(float64(0))
	gob.Register(false)
	gob.Register("")
	gob.Register(MemReq{})
	gob.Register(MemResp{})
}
