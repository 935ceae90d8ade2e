(** The discrete-event scheduler (paper §III-C, Fig. 4, Fig. 5b).

    The scheduler owns the event list and drives the simulation: its main
    loop repeatedly pops the earliest event, advances simulated time to the
    event's timestamp, and runs the event's action.  Unlike a discrete-time
    simulator, time jumps directly between event timestamps.  Simulation
    terminates when a {e stop event} fires, when the event list drains, or
    when an event budget is exhausted. *)

type t

(** Standard event priorities.  A clock cycle is split into two phases
    (paper §III-C): components first {e negotiate} transfers, then packages
    are {e moved}.  Clock ticks fire before either, at [prio_tick + rank]
    ({!Clock.create}), so clocked state machines observe a consistent
    pre-phase state. *)
val prio_tick : int

val prio_negotiate : int
val prio_transfer : int
val prio_stop : int

val create : unit -> t

(** Current simulated time. *)
val now : t -> int

(** Priority of the event currently (or most recently) being executed.
    {!Clock.wake} compares it with the woken clock's tick priority to
    decide whether that tick at the current instant would already have
    popped in an ungated run (same-time events pop in ascending priority
    order). *)
val current_prio : t -> int

(** [schedule t ~delay ~prio f] schedules action [f] at [now t + delay].
    [delay] must be non-negative; [prio] defaults to [prio_tick]. *)
val schedule : t -> ?prio:int -> delay:int -> (unit -> unit) -> unit

(** [schedule_at t ~time ~prio f] schedules at absolute [time >= now t]. *)
val schedule_at : t -> ?prio:int -> time:int -> (unit -> unit) -> unit

(** Remove the pending event whose action is physically [f], if any, in
    time linear in the pending events. *)
val cancel : t -> (unit -> unit) -> unit

(** Request termination: a stop event is scheduled at the given absolute
    time (default: immediately, i.e. before any later-timed event).

    Raises [Invalid_argument] if [time] is in the past, consistently with
    {!schedule_at} (an [invalid_arg], not a clamp, so a caller computing a
    stale deadline fails loudly instead of stopping at a surprising time).

    A stop event only terminates the run in progress when it fires: every
    {!run} bumps an internal generation on return, and stop events from
    earlier generations are drained as no-ops.  Without this, a budget
    stop left unconsumed by an early [Halt] would silently truncate a
    later run (e.g. a restore-then-run flow). *)
val stop : t -> ?time:int -> unit -> unit

type outcome =
  | Stopped  (** a stop event fired *)
  | Drained  (** the event list became empty *)
  | Budget  (** the [max_events] budget was exhausted *)
  | Until  (** the [until] predicate held *)

(** Run the main loop.  Returns why the loop exited.  On return (for any
    outcome) all currently-armed stop events are invalidated; see
    {!stop}.

    [until] is evaluated whenever simulated time is about to advance,
    i.e. after the last event of an instant (the one the run started at
    included); the run returns [Until] at that instant as soon as it
    holds.  State only changes at events, so this finds the first
    instant at which the predicate holds without an event per cycle. *)
val run : ?max_events:int -> ?until:(unit -> bool) -> t -> outcome

(** Number of events processed so far (monotonic across [run] calls). *)
val events_processed : t -> int
