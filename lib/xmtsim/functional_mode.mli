(** The fast functional simulation mode (paper §III-A).

    Replaces the cycle-accurate model with a mechanism that serializes the
    parallel sections: one context executes all virtual threads of a spawn
    in ID order.  Orders of magnitude faster than cycle mode, provides no
    cycle information, and — as the paper warns — cannot reveal
    concurrency bugs, because the serialized execution is only one of the
    legal interleavings.

    Besides the one-shot {!run}, an incremental interface serves the
    phase sampling of §III-F ({!Phase_sampling}): {!advance} executes a
    bounded number of instructions, pausing only at {e serial boundaries}
    (a spawn executes atomically), and hands every executed pc to the
    interval's fingerprint; {!snapshot} exports the architectural state so
    a cycle-accurate {!Machine} can take over from that exact point.

    The master's instruction count ([Stats.master_instrs]) includes each
    spawn but not its join, which the serialized spawn never executes;
    the cycle-accurate master counts both. *)

type result = {
  output : string;
  instructions : int;
  halted : bool;
  stats : Stats.t;  (** instruction counters only; no activity data *)
}

exception Exec_error of string

(** [profile] attaches a reuse-profile collector ({!Reuseprofile}): the
    interpreter feeds it every executed instruction, every memory
    access (with its address and read-only/atomic kind) and every
    spawn/join boundary — the harvest pass of the analytical prediction
    mode.  Without it the hooks cost one [None] match per event. *)
val run :
  ?max_instructions:int ->
  ?profile:Reuseprofile.t ->
  Isa.Program.image ->
  result

(* -------- incremental interface (phase sampling, §III-F) -------- *)

type state

val init : ?profile:Reuseprofile.t -> Isa.Program.image -> state

(** Execute at least [budget] more instructions (pausing only at a serial
    boundary, so a spawn may overshoot), or until halt.  [on_instr] sees
    every executed pc. *)
val advance :
  ?on_instr:(pc:int -> unit) -> state -> budget:int -> [ `Paused | `Halted ]

val instructions : state -> int
val halted : state -> bool
val output : state -> string
val stats : state -> Stats.t

(** Architectural snapshot at the current (serial-boundary) point,
    loadable into a cycle-accurate {!Machine}. *)
val snapshot : state -> Machine.snapshot
