(** Discrete-event simulation engine (paper §III-C–§III-E).

    This library is the substrate under {!Xmtsim}: a deterministic
    event-list scheduler ({!Scheduler} over {!Event_heap}), clock domains
    with DVFS/gating/macro-actor grouping ({!Clock}) and reproducible
    randomness ({!Rng}).  An actor is a closure that reschedules itself,
    and components hand packages to each other by scheduling closures
    directly; the machine checkpoints its own architectural state
    ({!Xmtsim.Machine.checkpoint}). *)

module Event_heap = Event_heap
module Scheduler = Scheduler
module Clock = Clock
module Rng = Rng
