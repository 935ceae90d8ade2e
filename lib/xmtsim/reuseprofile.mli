(** Reuse-profile harvest: the cheap-side input of the analytical
    prediction mode ({!Predict} in [lib/predict]).

    A functional run with a collector attached
    ([Functional_mode.run ~profile]) gathers, in one pass and bounded
    memory:

    - {e per-spawn-block instruction mixes} — executed-instruction
      counts per functional-unit class, keyed by the spawn instruction's
      index (the serial/master region is the pseudo-block [pc = -1]),
      plus activation, virtual-thread and memory-op counts per block
      (loads, read-only loads, stores, non-blocking stores, psm,
      prefetches, fences, and the multiply / float-divide splits the
      latency model needs);
    - {e concurrency-aware reuse-distance histograms} per address
      stream — TCU read-write, TCU read-only ([lwro]) and master — at
      several line granularities, via a bounded move-to-front (LRU
      stack-distance) tracker.  Recency is updated on every access;
      distances are measured on every [sample_period]-th {e eligible}
      reuse (so measured distances stay exact).  First touches are
      counted exactly.  Because the functional interpreter serializes
      threads that the real machine runs [num_tcus] at a time, each
      access carries a virtual-TCU id (threads are dealt round-robin
      onto [streams] ids): a reuse by a {e different} vTCU within
      [window] accesses of the line's (re)install is a {e co-miss} —
      on hardware those requests park on the in-flight DRAM fill
      (MSHR) and pay miss latency without issuing a second fill.
      Co-misses are counted exactly and excluded from the distance
      histogram;
    - {e spawn/join phase shape} — how many spawns executed and how
      many virtual threads each block ran.

    The {!snapshot} feeds the stack-distance hit-rate conversion and
    contention model of [Predict.Model]; {!to_json} serializes it as an
    [xmt.reuseprofile.v1] report. *)

type t

(** [create ()] with defaults: granularities [1; 4] words, [depth]
    16384 lines per tracker, [sample_period] 8, [streams] 64 virtual
    TCUs, co-miss [window] = [streams] accesses, [line_sampling] 1
    (exact).
    [line_sampling] (a power of two; 1 = exact) is SHARDS-style spatial
    sampling: only lines whose hash lands in the 1/rate sample set are
    tracked, measured distances are scaled back by the rate, and all
    tracker counters stay unbiased in ratio — the harvest's time and
    memory shrink by the rate.  Memory use is bounded by
    O(streams x granularities x depth / line_sampling), independent of
    run length. *)
val create :
  ?granularities:int list ->
  ?depth:int ->
  ?sample_period:int ->
  ?streams:int ->
  ?window:int ->
  ?line_sampling:int ->
  unit ->
  t

(** {2 Collector hooks} (called by {!Functional_mode}) *)

val on_instrs : t -> master:bool -> Isa.Instr.t -> int -> unit

val on_access :
  t ->
  master:bool ->
  ro:bool ->
  nb:bool ->
  kind:[ `Load | `Store | `Psm | `Prefetch ] ->
  addr:int ->
  unit

(** A new virtual thread started running inside the open spawn block
    (deals the thread onto the next vTCU stream). *)
val on_thread : t -> unit

val on_fence : t -> unit
val enter_spawn : t -> pc:int -> threads:int -> unit
val exit_spawn : t -> unit

(** {2 Snapshot} *)

type histogram = {
  h_granularity_words : int;
  h_depth : int;
  h_window : int;  (** co-miss window, in accesses *)
  h_line_sampling : int;  (** spatial sampling rate (1 = exact) *)
  h_accesses : int;  (** tracked (sampled-line) accesses *)
  h_first_touch : int;  (** compulsory misses over tracked lines *)
  h_comiss : int;  (** cross-vTCU reuses inside the window *)
  h_sampled : int;  (** eligible reuses whose distance was measured *)
  h_beyond : int;  (** measured reuses past [h_depth] *)
  h_buckets : int array;
      (** [h_buckets.(0)] counts stack distance 1; [h_buckets.(i)]
          distances in [(2^(i-1), 2^i]] (scaled back to the full line
          space when [h_line_sampling > 1]) *)
}

type block_info = {
  pc : int;  (** spawn instruction index; -1 = the serial block *)
  activations : int;
  threads : int;  (** virtual threads summed over activations *)
  instructions : int;
  mix : (string * int) list;  (** fu-class name -> executed count *)
  muls : int;  (** MDU ops that are multiplies (rest are divides) *)
  fpu_divs : int;  (** FPU ops that are fdiv/fsqrt (rest are add/mul) *)
  loads : int;
  ro_loads : int;
  stores : int;
  nb_stores : int;
  psm : int;
  prefetch : int;
  fences : int;
}

type snapshot = {
  p_instructions : int;
  p_master_instructions : int;
  p_spawns : int;
  p_accesses : int;
  p_sample_period : int;
  p_streams_dealt : int;  (** virtual TCUs threads were dealt onto *)
  p_blocks : block_info list;  (** serial block first, then by spawn pc *)
  p_streams : (string * histogram list) list;
      (** ["tcu_rw"], ["tcu_ro"], ["master"] *)
}

val snapshot : t -> snapshot

(** The [xmt.reuseprofile.v1] report. *)
val to_json : snapshot -> Obs.Json.t
