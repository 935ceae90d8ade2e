(** The cycle-accurate XMT machine (paper §III, Fig. 1, Fig. 3).

    Execution-driven simulation: TCUs and the Master TCU ask the
    functional model to issue instructions; memory operations travel as
    packages through the cluster outbox, the interconnection network, the
    hashed shared cache modules and DRAM, with contention and queueing at
    each stage.  Values are read/written {e when the package is serviced},
    so relaxed-memory outcomes (Fig. 6) are faithful.

    TCUs may only fetch instructions inside the broadcast spawn-join
    region; violating this (e.g. compiling with the Fig. 9 repair
    disabled) raises {!Sim_error} — the hardware constraint that makes the
    compiler post-pass load-bearing. *)

type t

exception Sim_error of string

type result = {
  output : string;
  cycles : int;
  halted : bool;  (** false when the run hit the cycle budget *)
}

val create : ?config:Config.t -> Isa.Program.image -> t

(** Run to completion (halt), for at most [max_cycles] more cycles, or
    to the first instant boundary at which [until] holds.  A machine
    that has halted (or was restored from a snapshot taken after the
    halt) runs no cycle. *)
val run : ?max_cycles:int -> ?until:(unit -> bool) -> t -> result

val config : t -> Config.t
val stats : t -> Stats.t
val output : t -> string
val cycles : t -> int
val mem : t -> Mem.t

(** Diagnostics: per-(module, subtree-side) ICN merge backlog (cycles). *)
val icn_backlog : t -> int array array

(** Executed TCU instructions per cluster — the spatial activity behind
    the floorplan visualization and per-cluster power attribution. *)
val cluster_activity : t -> int array
val globals : t -> int array  (** the global PS register file *)

(** Host-side throughput: events processed by the desim scheduler so far
    (events/sec = this over wall-clock). *)
val events_processed : t -> int

(* -------- runtime control (activity plug-in interface, §III-B) -------- *)

type domain = Clusters | Icn | Caches | Dram

val set_period : t -> domain -> int -> unit
val period : t -> domain -> int

(* -------- clock gating (§III-C) -------- *)

(** Enable/disable clock gating (on by default).  When on, each clock
    domain sleeps while it provably has no work (caches: all input queues,
    MSHRs and the DRAM queue empty; DRAM: queue empty and no fill in
    flight; clusters: no spawn active, outboxes/returns empty and the
    master parked on a scheduled callback; ICN: always — transfers are
    their own events) and is woken, on its period grid, by the events that
    create work.  Gated and ungated runs produce bit-identical output,
    cycle counts, stats and traces; only the host-side event count
    ({!events_processed}) differs.  Must be called before the first
    {!run}; raises {!Sim_error} afterwards. *)
val set_gating : t -> bool -> unit

val gating_enabled : t -> bool

(** Is the domain's clock currently gated off?  (The stream heartbeat
    counts these; it is host state, so nothing simulated may read it.) *)
val domain_sleeping : t -> domain -> bool

(** Export per-domain clock activity into a metrics registry:
    [sim.clock.ticks{domain}] and [sim.clock.skipped_ticks{domain}]
    counters (fired ticks vs. the estimate of ticks gating skipped) and
    the [sim.clock.period{domain}] gauge. *)
val export_clocks : t -> Obs.Metrics.t -> unit

(** [add_activity_plugin t ~interval hook] — [hook t cycle] runs at
    every [interval]-th cluster-clock grid tick [cycle] (see {!cluster_ticks}).
    The hook may retune clocks ({!set_period}); an idle cluster clock
    still sleeps, ticking at each sample point for at most one host event.
    Raises [Invalid_argument] unless [interval] is positive. *)
val add_activity_plugin : t -> interval:int -> (t -> int -> unit) -> unit

(** [add_passive_hook t ~interval run] — [run cycle] on the first fired
    cluster tick at or after every [interval]-th grid tick ([cycle]); it
    never wakes the clock (the stream heartbeat).  Validated as above. *)
val add_passive_hook : t -> interval:int -> (int -> unit) -> unit

(* -------- passive probes (§III-B filter plug-ins, §III-E traces) -------- *)

(** [attach t p] starts delivering the machine's events to probe [p]
    ({!Probe}); the returned thunk detaches it, so a bounded consumer
    (e.g. a trace with a line limit) can unhook itself mid-run.  Probes
    fire in attach order.  With nothing attached every hook site costs
    one branch.  Legal at any time, including between runs. *)
val attach : t -> Probe.t -> unit -> unit

(** Names of the attached probes, oldest first. *)
val probes : t -> string list

(** Has the first {!run} started?  (Probes that emit a start-of-run
    record must attach before it.) *)
val started : t -> bool

val image : t -> Isa.Program.image

(** Cluster-clock ticks elapsed, fired plus gated away: the grid every
    TCU-cycle account (the profiler's CPI stacks) is measured on. *)
val cluster_ticks : t -> int

(* -------- checkpoints (§III-E) -------- *)

type snapshot

(** A snapshot file with a bad header, a truncated or corrupt payload,
    or a snapshot from a different program image. *)
exception Bad_snapshot of string

(** Is the machine at a point where a checkpoint is legal (serial mode,
    nothing in flight)?  True before the first [run] and after a halt. *)
val is_quiescent : t -> bool

(** Keep running in small increments until the machine is quiescent or
    halted — used to take the "checkpoint at a user-given point" of
    §III-E: run to the requested cycle, then to the next quiescent
    boundary, then {!checkpoint}. *)
val run_to_quiescent : t -> unit

(** Build a snapshot from raw architectural state — used by
    {!Functional_mode.snapshot} to hand a functionally-fast-forwarded
    state to the cycle-accurate machine (phase sampling, §III-F). *)
val make_snapshot :
  image:Isa.Program.image ->
  mem:Mem.t ->
  regs:int array ->
  fregs:float array ->
  pc:int ->
  globals:int array ->
  output:string ->
  snapshot

(** Snapshot machine state.  Only legal while the machine is in serial
    mode with no outstanding master memory operation (e.g. before [run],
    or from an activity plug-in during a serial phase); raises
    {!Sim_error} otherwise. *)
val checkpoint : t -> snapshot

(** Restore into a machine created from the same image, in any config:
    a snapshot is architectural state only, so phase sampling moves it
    between configs.  A snapshot taken after the halt restores a halted
    machine.  Raises {!Bad_snapshot} when the snapshot belongs to another
    image. *)
val restore : t -> snapshot -> unit

(** Snapshot files carry a magic string, a format version and the image
    digest ahead of the payload; {!snapshot_of_file} raises
    {!Bad_snapshot} when any of them, or the payload's checksum, is
    wrong. *)
val snapshot_to_file : snapshot -> string -> unit

val snapshot_of_file : string -> snapshot
