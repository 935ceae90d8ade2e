(** Clock domains (paper §III-B, §III-D).

    A clock is a self-rescheduling actor that ticks with a mutable period;
    components register tick handlers on it.  A clock with many handlers is
    exactly the {e macro-actor} of §III-D: one scheduled event per cycle
    iterates all grouped components, instead of one event per component.

    Clocks support the runtime-control features the paper exposes through
    activity plug-ins: the period can be changed on the fly (DVFS, taking
    effect at the next tick) and the clock can be disabled/enabled.

    {b Clock gating} (§III-C: the discrete-event engine skips work for
    inactive components): a clock whose handlers all have nothing to do may
    be put to [sleep] and [wake]d later.  A woken clock resumes {e on the
    period grid} anchored at its last fired tick, so a gated-then-woken
    domain ticks at exactly the simulated times an ungated run would have —
    gating is invisible to cycle counts, stats and traces, and only reduces
    the host-side event count. *)

type t

(** Handlers run in ascending phase order within a tick; ties run in
    registration order.  The handler receives the cycle index of this clock
    (number of ticks elapsed, counting gated-off ticks never happens). *)
type handler = int -> unit

(** Ticks pop at priority [Scheduler.prio_tick + rank] (default rank 0):
    same-instant ticks run in rank order whatever the gating history, and
    tie with events of equal priority in insertion order.  Raises
    [Invalid_argument] on a non-positive [period] or a [rank] below 0 or
    reaching [Scheduler.prio_negotiate]. *)
val create : ?rank:int -> Scheduler.t -> name:string -> period:int -> t
val name : t -> string
val period : t -> int

(** Change the period; takes effect from the next tick.  Raises
    [Invalid_argument] if not positive.  On a {e sleeping} clock the new
    period takes effect at the next woken tick: {!wake} computes the
    resume grid from the last fired tick with the period current at wake
    time.  The skipped-tick estimate for the span already slept is
    accrued at the old period first, so a DVFS change on a gated domain
    does not double-count.  A sleep bound ({!sleep}) moves with it. *)
val set_period : t -> int -> unit

(** Cycles elapsed on this clock (fired ticks only; gated-away ticks are
    not counted here — see {!skipped_ticks}). *)
val cycles : t -> int

(** Estimate of the ticks this clock never fired because it was asleep:
    the grid points covered by completed sleep spans, plus the span still
    open if the clock is currently sleeping.  [cycles + skipped_ticks]
    approximates what [cycles] would be on an ungated run; the host-side
    event reduction from gating is proportional to this number. *)
val skipped_ticks : t -> int

val on_tick : ?phase:int -> t -> handler -> unit

(** Begin ticking.  Must be called once after handlers are registered. *)
val start : t -> unit

val enabled : t -> bool
val disable : t -> unit
val enable : t -> unit

(** Stop scheduling ticks until [wake].  Unlike [disable], [wake] may be
    called from any component (e.g. a package arriving at an idle cluster).
    Sleeping while a tick event is already scheduled does not leak a tick:
    the pending event fires as a no-op (handlers do not run, [cycles] does
    not advance) and, if the clock woke up in the meantime, serves as the
    normally-scheduled next tick.

    [~until:u]: the clock still ticks at grid index [u] ([cycles +
    skipped_ticks] as it fires), scheduled now, from a tick handler, so
    the event sorts where an ungated tick would.  An earlier {!wake}
    withdraws it, {!set_period} moves it: one event at most per bound. *)
val sleep : ?until:int -> t -> unit

(** Resume ticking on the period grid anchored at the last fired tick
    (the smallest grid point at least one period after it and >= now).
    A wake that lands exactly on a grid point ticks there, unless the
    waker popped at a priority above the clock's
    ({!Scheduler.current_prio}): an ungated run's tick at this instant
    came before the waker then, so the clock resumes one period later. *)
val wake : t -> unit

val sleeping : t -> bool
