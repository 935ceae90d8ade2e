(** Per-TCU prefetch buffers (paper §II, §IV-C, ref [8]).

    A small fully-associative buffer of prefetched words.  [pref]
    instructions allocate an in-flight entry and fire a memory read; a
    later load that finds its address [Ready] completes in one cycle,
    hiding the shared-cache round trip.  A load that finds the entry still
    in flight attaches itself and completes when the data arrives.
    Replacement is FIFO or LRU (the policy study of [8]).  Only
    attaching a waiter allocates. *)

type t

type lookup = Hit of Isa.Value.t | In_flight | Miss

val create : size:int -> policy:Config.prefetch_policy -> t

(** [start t addr] allocates an in-flight entry (evicting per policy).
    Returns [false] when the buffer has size 0 or [addr] is already
    buffered (no new request should be sent), [true] when a memory read
    should be launched.  [evicted] reports whether a victim was dropped. *)
val start : t -> int -> bool

(** Data arrived for [addr]; returns the TCU waiter attached, if any.
    Returns [None] also when the entry was evicted while in flight. *)
val fill : t -> int -> Isa.Value.t -> int option

val lookup : t -> int -> lookup

(** Attach a load waiting on an in-flight entry; the destination is a
    register code as in {!Funcmodel.ctx}. *)
val wait_on : t -> int -> int -> unit

(** Drop any entry for [addr] — used when the owning TCU stores to the
    address, so a later load cannot read a stale prefetched value.  An
    in-flight entry is dropped too: its fill is discarded on arrival. *)
val invalidate : t -> int -> unit

val evictions : t -> int
val clear : t -> unit
