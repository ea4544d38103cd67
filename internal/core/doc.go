// Package core implements the Liberty Simulation Environment (LSE) engine:
// a structural, composable modeling system in which hardware is described as
// a netlist of concurrently-executing module instances connected through
// ports, and simulators are constructed automatically from that description.
//
// # Model of computation
//
// The engine fixes a heterogeneous synchronous reactive model of
// computation. Simulated time advances in discrete time-steps (cycles).
// Within a time-step every handshake signal starts Unknown and may be
// raised exactly once to a resolved value. Module reactive handlers are
// invoked whenever a signal they can observe resolves; because resolution
// is monotonic and single-assignment, the per-cycle fixed point is
// confluent — the same final signal assignment is reached regardless of
// handler invocation order. This is what lets every scheduler produce
// bit-identical results to the sequential one.
//
// # The 3-signal communication contract
//
// Every connection between two ports carries three signals:
//
//   - data   (forward)  — the value being offered this cycle, or Nothing.
//   - enable (forward)  — the sender's commitment that the offered data is
//     firm and should be consumed this cycle.
//   - ack    (backward) — the receiver's acceptance.
//
// A datum is transferred in a time-step if and only if all three resolve
// affirmatively. The contract is domain independent: components written
// for different domains interoperate without prior planning because they
// all negotiate transfers the same way.
//
// # Default control semantics
//
// Users may connect only the datapath and rely on default control: at the
// fixed point, still-Unknown signals are defaulted (data to Nothing, enable
// to follow data, ack to accept firm data) in deterministic rounds, waking
// handlers between rounds. Any port can override its defaults (PortOpts)
// and any module can drive control explicitly, so arbitrary control
// behavior remains expressible.
//
// # Writing modules
//
// A module embeds Base, declares ports with AddInPort/AddOutPort, and
// registers up to three handlers:
//
//   - OnCycleStart: runs exactly once per cycle, before resolution. The
//     only place for non-idempotent per-cycle actions (advancing RNGs,
//     incrementing per-cycle counters, rolling state-dependent offers).
//   - OnReact: the reactive handler. May run many times per cycle; it must
//     be monotonic and idempotent — read signal statuses, raise whatever
//     has become determinable, and never perform a side effect that is
//     wrong when repeated.
//   - OnCycleEnd: runs exactly once per cycle after all signals resolve.
//     The only place to commit state; use Port.Transferred to learn which
//     handshakes completed.
//
// The constructor also declares the module's statistics, next to its
// ports and its Checkpoint: Counter(name) and Histogram(name) return
// accumulators that belong to the instance, which the session reports as
// "<instance>.<name>" from construction on (at 0 before the first cycle).
// Declaring one once the instance is attached to a simulator is a
// contract violation, and so is observing a NaN or infinite sample.
//
// Raising the same signal twice with different values, writing a signal
// from the wrong side, or writing signals during OnCycleEnd panics with a
// *ContractError, which Sim.Step converts into a returned error.
package core
