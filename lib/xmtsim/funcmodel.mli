(** The functional model (paper Fig. 3): operational definition of every
    instruction plus the register state of one hardware context.

    The simulator is execution-driven: the cycle-accurate model asks the
    functional model to {e issue} the instruction at the context's PC; the
    result describes what must happen in simulated time (a memory round
    trip, a prefix-sum, a spawn...).  Register effects of pure instructions
    are applied immediately; memory effects are applied by whoever owns the
    memory timing (the cache module in cycle mode, the interpreter loop in
    functional mode), keeping relaxed-consistency outcomes faithful. *)

(** Register state, plus the operands of the last [Load], [Store],
    [Psm] or [Prefetch] issued: {!issue} leaves them here instead of
    returning them, so issuing allocates nothing. *)
type ctx = {
  regs : int array;  (** 32 integer registers; r0 hardwired to 0 *)
  fregs : float array;
  mutable pc : int;
  mutable addr : int;  (** memory address *)
  mutable dst : int;
      (** [Load]: destination register code, integer register [r] as [r]
          and float register [f] as [-1 - f]; [Psm]: integer register *)
  mutable ro : bool;  (** [Load] through the read-only cache *)
  mutable nb : bool;  (** non-blocking [Store] *)
  mutable value : Isa.Value.t;  (** [Store] value *)
  mutable inc : int;  (** [Psm] increment *)
}

val make_ctx : unit -> ctx

(** Copy all registers of [src] into [dst] — the broadcast of master
    registers to TCUs at spawn (§IV-B). *)
val copy_regs : src:ctx -> dst:ctx -> unit

(** Each [spawn]'s index in the program text mapped to its [join]'s.
    A nested, unmatched or unopened spawn block raises [error msg]: each
    execution mode passes its own exception. *)
val join_map : error:(string -> exn) -> Isa.Program.image -> (int, int) Hashtbl.t

exception Runtime_error of { pc : int; msg : string }

type issue =
  | Done  (** pure op; registers and pc updated *)
  | Load  (** [ctx.addr], [ctx.dst], [ctx.ro] *)
  | Store  (** [ctx.addr], [ctx.value], [ctx.nb] *)
  | Psm  (** [ctx.addr], [ctx.dst], [ctx.inc] *)
  | Prefetch  (** [ctx.addr] *)
  | Ps of { dst : int; g : int; inc : int }
  | Spawn of { lo : int; hi : int }
  | Join
  | Chkid of { id : int }
  | Mfg of { dst : int; g : int }
  | Mtg of { g : int; src : int }
  | Fence
  | Halt
  | Output of string  (** sys print; already formatted *)

(** Execute the instruction at [ctx.pc].  Advances [pc] (to the branch
    target for taken branches).  [read_str] is needed only by [pstr]. *)
val issue : Isa.Program.image -> ctx -> read_str:(int -> string) -> issue

(** Apply a completed load's value to its destination register code. *)
val complete_load : ctx -> int -> Isa.Value.t -> unit
