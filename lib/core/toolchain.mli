(** The programmer's workflow in one call (paper §I): XMTC source ->
    optimizing compiler -> XMT assembly -> simulation, in either the
    cycle-accurate or the fast functional mode.

    Global variables are the only program input (no OS, §III-A): pass
    initial values for named globals through [memmap], exactly like the
    memory-map files of Fig. 3. *)

type compiled = {
  cc : Compiler.Driver.output;
  image : Isa.Program.image;
}

val compile :
  ?options:Compiler.Driver.options -> ?memmap:Isa.Memmap.t -> string -> compiled

(** Shared compiled artifacts: a compile-once cache keyed on the
    (source, compiler-options, memmap) triple.

    A design-space sweep simulates one program under many machine
    configurations, so most jobs share their compile key; routing them
    through one [Artifacts.t] compiles each key once and simulates every
    config against the same read-only {!compiled} value (the simulator
    copies the image's data words into a fresh store per machine, so
    sharing is safe).  The cache is domain-safe: concurrent requests for
    a key being compiled block until the artifact is ready, and a
    failing compile leaves no cache entry — each retry compiles afresh,
    preserving the campaign engine's per-job retry semantics. *)
module Artifacts : sig
  type t

  val create : unit -> t

  (** [get t src] returns the cached artifact for the key or compiles
      (and caches) it.  Re-raises the compile error on failure. *)
  val get :
    t ->
    ?options:Compiler.Driver.options ->
    ?memmap:Isa.Memmap.t ->
    string ->
    compiled

  (** [(hits, misses)]: reuses vs compiles actually performed. *)
  val stats : t -> int * int
end

type run = {
  output : string;
  cycles : int;  (** 0 in functional mode *)
  instructions : int;
  events : int;  (** desim events processed (0 in functional mode) *)
  stats : Xmtsim.Stats.t;
  races : Obs.Json.t option;
      (** [xmt.races.v1] report when the run was race-checked: static
          findings ({!Racecheck}) plus, for cycle runs, the dynamic
          shadow-memory detector's races ({!Xmtsim.Racedetect}) *)
  profile : Obs.Json.t option;
      (** [xmt.profile.v1] CPI-stack report ({!Xmtsim.Profile}) when the
          run was profiled (cycle mode only) *)
  predict : Obs.Json.t option;
      (** [xmt.predict.v1] analytical-prediction report ({!Predict.Model})
          when the run used predict mode; [run.cycles] then carries the
          predicted cycle count *)
}

(** Run on the cycle-accurate simulator.  [racecheck] attaches the
    dynamic race detector and fills [run.races] with the combined
    static+dynamic [xmt.races.v1] report.  [profile] attaches the
    cycle-accounting profiler and fills [run.profile] with the
    [xmt.profile.v1] CPI-stack report; the profiler is passive, so the
    run's cycles, output and stats are unchanged.  [stream] attaches a
    live [xmt.events.v1] telemetry stream ({!Xmtsim.Heartbeat}):
    a [run.start] record, [sim.heartbeat]s every [heartbeat_cycles]
    cluster cycles, [window.close] rollups and a [run.done] summary —
    also passive, bit-identical results including the host event
    count. *)
val run_cycle :
  ?config:Xmtsim.Config.t ->
  ?racecheck:bool ->
  ?profile:bool ->
  ?stream:Obs.Stream.t ->
  ?heartbeat_cycles:int ->
  ?max_cycles:int ->
  compiled ->
  run

(** Run in the fast functional (serializing) mode.  With [racecheck]
    the report carries the static layer only (no machine to observe). *)
val run_functional : ?racecheck:bool -> ?max_instructions:int -> compiled -> run

(** Run in analytical prediction mode: one functional pass harvests a
    reuse profile ({!Xmtsim.Reuseprofile}), the analytical model
    ({!Predict.Model}) prices it under [config], and [run.cycles]
    carries the predicted cycle count ([run.predict] the full
    [xmt.predict.v1] report).  [calibration] names an
    [xmt.calibration.v1] artifact; absent, the committed
    {!Predict.Calibrate.default} fit applies.  Raises
    {!Predict.Calibrate.Calib_error} on a missing or invalid artifact
    and {!Xmtsim.Config.Bad_config} on an inconsistent config.  Like
    functional mode, [racecheck] yields the static layer only. *)
val run_predict :
  ?config:Xmtsim.Config.t ->
  ?racecheck:bool ->
  ?calibration:string ->
  ?max_instructions:int ->
  compiled ->
  run

(** {1 The job-oriented surface}

    A [job] reifies one compile+simulate as data: source, compiler
    options, simulator configuration, mode, memory map and an optional
    per-job RNG seed.  The campaign engine ({!Campaign}), the benches
    and [xmtsim_cli] all construct jobs and hand them to {!run_job};
    {!exec} is a thin wrapper kept for existing callers. *)

type mode = Cycle | Functional | Predict

val mode_name : mode -> string

type job = {
  job_name : string;
  source : string;  (** XMTC source text *)
  options : Compiler.Driver.options;
  memmap : Isa.Memmap.t;
  config : Xmtsim.Config.t;
  mode : mode;
  seed : int option;
      (** deterministic per-job RNG seed; overrides [config.seed] *)
  max_cycles : int option;  (** cycle-mode budget *)
  max_instructions : int option;  (** functional-mode budget *)
  racecheck : bool;  (** attach the race checker; report in [run.races] *)
  profile : bool;
      (** attach the cycle-accounting profiler; report in [run.profile]
          (cycle mode only) *)
  calibration : string option;
      (** predict-mode calibration artifact path; [None] = the built-in
          {!Predict.Calibrate.default} fit *)
}

(** Build a job; defaults: [name ""], [default_options], empty memmap,
    {!Xmtsim.Config.fpga64}, [Cycle] mode, no seed override, no budget
    overrides, race checking off, profiling off, built-in calibration. *)
val job :
  ?name:string ->
  ?options:Compiler.Driver.options ->
  ?memmap:Isa.Memmap.t ->
  ?config:Xmtsim.Config.t ->
  ?mode:mode ->
  ?seed:int ->
  ?max_cycles:int ->
  ?max_instructions:int ->
  ?racecheck:bool ->
  ?profile:bool ->
  ?calibration:string ->
  string ->
  job

(** The configuration the job simulates with: per-job [seed] folded in,
    then validated.  Raises {!Xmtsim.Config.Bad_config} on an
    inconsistent sweep point. *)
val job_config : job -> Xmtsim.Config.t

(** Compile and simulate one job.  Raises {!Compiler.Driver.Compile_error},
    {!Xmtsim.Config.Bad_config} or {!Xmtsim.Machine.Sim_error} on failure
    — the campaign engine captures these per job.  [artifacts] routes the
    compile through a shared {!Artifacts} cache (compile once, simulate
    many configs).  [stream] attaches a live telemetry stream to
    cycle-mode runs (functional runs have no cycle clock to sample and
    ignore it). *)
val run_job :
  ?artifacts:Artifacts.t -> ?stream:Obs.Stream.t -> ?heartbeat_cycles:int ->
  job -> run

(** Compile + run in one step (thin wrapper over {!run_job}). *)
val exec :
  ?options:Compiler.Driver.options ->
  ?memmap:Isa.Memmap.t ->
  ?config:Xmtsim.Config.t ->
  ?stream:Obs.Stream.t ->
  ?functional:bool ->
  string ->
  run

(** Build the machine without running it (for plug-ins, traces, DVFS). *)
val machine : ?config:Xmtsim.Config.t -> compiled -> Xmtsim.Machine.t

(** Read back an [int] global after a run needs the image address: this
    helper reads a global array from a machine's memory. *)
val read_global : Xmtsim.Machine.t -> compiled -> string -> int -> int array
