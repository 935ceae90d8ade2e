(** Phase sampling (paper §III-F, "Features under Development"; ref [38],
    SimPoint).

    Programs with long execution times consist of phases — sets of
    intervals with similar behaviour.  Instead of cycle-simulating the
    whole program, this module:

    + fast-forwards through the program in the functional mode, cutting it
      into intervals of ~[interval] instructions (at serial boundaries)
      and fingerprinting each with a basic-block-vector-style histogram of
      executed pcs;
    + clusters interval fingerprints into phases (greedy leader
      clustering, the lightweight stand-in for SimPoint's k-means);
    + cycle-simulates the first interval of each phase — the cycle machine
      takes over from the functional state via {!Machine.make_snapshot}
      and runs until its master has issued the interval's master
      instructions — charges it the cycles measured, and charges every
      other interval at its phase's cycles per functional instruction.

    The result is an estimated total cycle count at a fraction of the
    cycle-accurate simulation work.  An interval longer than the program
    is the whole run, measured: the estimate is the cycle-accurate count.
    Each measured interval starts with cold caches. *)

type result = {
  estimated_cycles : int;
  total_instructions : int;  (** functional-mode instructions *)
  intervals : int;
  phases : int;  (** one interval of each is cycle-simulated *)
  sampled_instructions : int;
      (** functional-mode instructions in the cycle-simulated intervals *)
  sampled_cycles : int;
}

(** A cycle-simulated interval stopped neither halted nor at its end
    (the configuration's cycle budget ran out). *)
exception Error of string

(** [estimate ?config ?interval image].  [interval] is the fast-forward
    quantum in instructions (default 20_000); raises [Invalid_argument]
    when it is below 1. *)
val estimate : ?config:Config.t -> ?interval:int -> Isa.Program.image -> result
