(** Pending events, the "event list" of the DE scheduler (paper Fig. 4).

    Events are ordered by [(time, priority, sequence number)].  The sequence
    number is assigned at insertion, making the processing order of
    simultaneous same-priority events deterministic (insertion order), which
    in turn makes whole simulations reproducible.  [time] and [priority]
    may be any [int].

    The main store is a timing wheel (a calendar queue): {!slots} slots
    cover the times from the latest popped event's on, each slot a list
    of the events at one time, kept sorted by priority and sequence
    number in pooled int-array nodes.  An occupancy bitmap finds the next
    non-empty slot a word at a time, so [add] and [pop] take constant time
    for the events a simulator schedules a few hundred cycles ahead.
    Events outside that horizon, or before the latest popped time, go to
    an overflow binary heap of int keys; [pop] takes the smaller key of
    the two stores.  A freed node or heap slot holds no payload, so it
    keeps nothing alive. *)

type 'a t

val create : unit -> 'a t

(** The wheel's horizon in time units: an event added at most
    [slots - 1] after the latest popped time goes into the wheel. *)
val slots : int

(** [add h ~time ~prio x] inserts [x] to fire at [time] with priority [prio]
    (lower priority fires first among events at the same time). *)
val add : 'a t -> time:int -> prio:int -> 'a -> unit

(** Remove the earliest event and return its payload; read its time and
    priority first with {!top_time} and {!top_prio}, which find and cache
    the earliest event for [pop].  Nothing is allocated, so the
    scheduler's dispatch loop stays allocation-free.  Raises [Not_found]
    when no event is pending. *)
val pop : 'a t -> 'a

(** Time and priority of the earliest event.  Raise [Not_found] when no
    event is pending. *)
val top_time : 'a t -> int

val top_prio : 'a t -> int

(** Remove an event whose payload is physically [x], if any: linear in
    the pending events, visiting only the wheel's occupied slots. *)
val remove : 'a t -> 'a -> unit

(** Time of the earliest pending event, if any. *)
val min_time : 'a t -> int option

val is_empty : 'a t -> bool
