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

(** Shared compiled artifacts and their reuse-profile harvests.

    A design-space sweep simulates one program under many machine
    configurations, so most jobs share their compile key, the
    (source, compiler-options, memmap) triple.  Routing them through one
    [Artifacts.t] compiles each key once and simulates every config
    against the same read-only {!compiled} value (the simulator copies
    the image's data words into a fresh store per machine, so sharing is
    safe).

    A predict job of such a key ({!run_job} [~artifacts]) shares one
    more thing: its functional pass, which harvests the reuse profile
    and reads nothing but the image and [max_instructions].  Each
    artifact keeps its harvests by budget: output, instruction count,
    {!Xmtsim.Stats.t} and the {!Xmtsim.Reuseprofile.snapshot}.  Config,
    seed and calibration only reach the model, and a predict job's race
    report is static-only, so none of them is in the key; after the
    first job of a program, a predict job costs one model evaluation.
    Each job gets its own copy of the shared [Stats.t]; the snapshot is
    shared and read-only.

    The cache is domain-safe: concurrent requests for a key being
    compiled or harvested block until the value is ready, and a failing
    compile or harvest (an exhausted instruction budget, say) leaves no
    cache entry — each retry runs afresh, preserving the campaign
    engine's per-job retry semantics. *)
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

  (** [(hits, misses)]: reuses vs harvests actually run (each failed
      harvest is a miss). *)
  val harvest_stats : t -> int * int
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

(** The three modes on a compiled program: shorthands for
    {!run_image} on a {!job} with that mode and these fields.  A cycle
    run that exhausts [max_cycles] raises {!Xmtsim.Machine.Sim_error}. *)
val run_cycle :
  ?config:Xmtsim.Config.t ->
  ?racecheck:bool ->
  ?profile:bool ->
  ?stream:Obs.Stream.t ->
  ?heartbeat_cycles:int ->
  ?max_cycles:int ->
  compiled ->
  run

val run_functional : ?racecheck:bool -> ?max_instructions:int -> compiled -> run

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
    per-job RNG seed.  The campaign engine ({!Campaign}) and the benches
    hand jobs to {!run_job}, the [xmtsim] CLI to {!run_image}; every run
    path, {!exec} and the [run_*] shorthands included, ends in
    {!run_image}. *)

type mode = Cycle | Functional | Predict

val mode_name : mode -> string

(** Parse a mode name, the inverse of {!mode_name}; [Error] names the
    accepted ones.  The CLI's [--mode] and campaign files both use it. *)
val mode_of_string : string -> (mode, string) result

(** Look up a configuration preset by name ({!Xmtsim.Config.presets});
    [Error] lists the known names. *)
val preset : string -> (Xmtsim.Config.t, string) result

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

(** Raised by {!run_image} when a cycle run stops on its [max_cycles]
    budget before the program halts; carries the partial run. *)
exception Budget_exhausted of run

(** Simulate one job on an already-resolved image ([job.source] is not
    read): the back end of {!run_job}, and the entry for callers that
    resolve the program themselves (the [xmtsim] CLI assembles [.s]
    inputs).  [cc] is the compiler output the image came from; without
    it the static race layer is empty.

    - [Cycle]: the race detector ([job.racecheck]), the profiler
      ([job.profile]) and the live [xmt.events.v1] [stream]
      ({!Xmtsim.Heartbeat}) attach as passive probes; then
      [before_run m profile] gets the machine and the job's profiler
      before it runs — the hook for more observers and checkpoint
      restores.  Raises {!Budget_exhausted} when the budget runs out.
    - [Functional]: the serializing mode; [cycles] and [events] are 0.
    - [Predict]: the config is checked, then one functional pass
      harvests a reuse profile (handed to [on_reuse]) that
      {!Predict.Model} prices under the config, with the
      [job.calibration] artifact or {!Predict.Calibrate.default};
      [cycles] is the prediction, [run.predict] the report.  Here the
      pass always runs; {!run_job} [~artifacts] shares it between the
      jobs of one artifact and budget ({!Artifacts}).

    The serializing modes' race report is static-only. *)
val run_image :
  ?stream:Obs.Stream.t ->
  ?heartbeat_cycles:int ->
  ?before_run:(Xmtsim.Machine.t -> Xmtsim.Profile.t option -> unit) ->
  ?on_reuse:(Xmtsim.Reuseprofile.snapshot -> unit) ->
  ?cc:Compiler.Driver.output ->
  job ->
  Isa.Program.image ->
  run

(** Compile the job (through the shared [artifacts] cache when given)
    and {!run_image} it; with [artifacts], a predict job also shares
    its harvest.  Raises {!Compiler.Driver.Compile_error},
    {!Xmtsim.Config.Bad_config} or {!Xmtsim.Machine.Sim_error} (an
    exhausted cycle budget included) — the campaign engine captures
    these per job. *)
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
