(** Pending events, the "event list" of the DE scheduler (paper Fig. 4).

    Events are ordered by [(time, priority, sequence number)].  The sequence
    number is assigned at insertion, making the processing order of
    simultaneous same-priority events deterministic (insertion order), which
    in turn makes whole simulations reproducible.  [time] and [priority]
    may be any [int].

    The heap sifts ints only: its arrays hold each event's key and the
    slot of its payload in a separate pool, where [add] writes the payload
    once and [pop] reads it once.  A freed slot holds no payload, so it
    keeps nothing alive. *)

type 'a t

val create : unit -> 'a t

(** [add h ~time ~prio x] inserts [x] to fire at [time] with priority [prio]
    (lower priority fires first among events at the same time). *)
val add : 'a t -> time:int -> prio:int -> 'a -> unit

(** Remove the earliest event and return its payload; read its time and
    priority first with {!top_time} and {!top_prio}.  Nothing is
    allocated, so the scheduler's dispatch loop stays allocation-free.
    Raises [Not_found] on an empty heap. *)
val pop : 'a t -> 'a

(** Time and priority of the earliest event.  Raise [Not_found] on an
    empty heap. *)
val top_time : 'a t -> int

val top_prio : 'a t -> int

(** Remove the event whose payload is physically [x], if any (linear). *)
val remove : 'a t -> 'a -> unit

(** Time of the earliest pending event, if any. *)
val min_time : 'a t -> int option

val is_empty : 'a t -> bool
