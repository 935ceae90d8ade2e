(** Parallel simulation-campaign engine.

    The paper's evaluation (§V) is a campaign: dozens of independent
    compile+simulate runs sweeping configurations, benchmarks and
    compiler options.  Each {!Core.Toolchain.job} is self-contained, so
    the outer loop is embarrassingly parallel; this engine fans jobs out
    across a persistent pool of OCaml domains ({!Pool}) — workers
    created once and reused across [run] calls, each pulling the next
    job index from one shared cursor — while keeping every simulated
    result bit-identical to a serial run:

    - {b determinism}: results come back in submission order whatever
      the completion order, and each job's RNG seed is part of the job,
      so [run ~jobs:8] and [run ~jobs:1] agree byte-for-byte on every
      simulated statistic;
    - {b fault isolation}: a job that raises (compile error, inconsistent
      config, simulator error) is captured — exception text, backtrace,
      attempt count — in its result slot and retried up to [retries]
      times; the other jobs are unaffected;
    - {b observability}: progress counters land in an {!Obs.Metrics}
      registry and an optional [on_event] callback (serialized, so it
      may print) sees every start/finish/failure with per-job wall-clock.

    Compiles are deduplicated: jobs sharing a (source, compiler-options,
    memmap) key compile once through a {!Core.Toolchain.Artifacts}
    cache and simulate against the same read-only program, and predict
    jobs sharing that key and [max_instructions] share one reuse-profile
    harvest — pass your own cache to [run] to keep artifacts warm across
    campaigns. *)

(** The persistent worker pool; create one and pass it to {!run} to
    amortize domain spawning across campaigns (benches, sweep drivers,
    repeated CLI invocations in one process). *)
module Pool = Pool

type failure = {
  f_exn : string;  (** [Printexc.to_string] of the final exception *)
  f_backtrace : string;  (** backtrace of the final attempt (host-specific) *)
}

type job_result = {
  r_index : int;  (** position in the submitted list *)
  r_name : string;
  r_job : Core.Toolchain.job;
  r_attempts : int;  (** 1 + retries actually used *)
  r_wall_seconds : float;  (** host wall-clock of the final attempt *)
  r_outcome : (Core.Toolchain.run, failure) result;
}

type event =
  | Job_started of { index : int; name : string }
  | Job_finished of { index : int; name : string; wall_seconds : float }
  | Job_failed of {
      index : int;
      name : string;
      attempts : int;
      error : string;
    }

(** {1 Requests}

    A campaign request reifies {e what to run} as one first-class value:
    the [(name, job)] specs plus the execution knobs that travel with
    them (worker width, retry budget).  Every front-end — the JSON
    campaign-spec parser, [xmtsim_cli], the bench harness and the
    [xmtserved] wire protocol — constructs the same record and hands it
    to {!run_request}, so a campaign means exactly the same thing
    whether it arrives from a file, a flag or a socket.

    Environment attachments (the pool to run on, the shared artifact
    cache, telemetry consumers) are deliberately {e not} part of the
    request: they describe where and how the host executes it, not what
    is being asked for, and stay optional arguments of {!run_request}. *)

module Request : sig
  type t = private {
    specs : (string * Core.Toolchain.job) list;
    jobs : int option;
        (** executor width; [None] = the pool's width (or 1 without a
            pool) *)
    retries : int;  (** per-job retry budget on failure *)
  }

  (** Validating constructor (mirroring {!Xmtsim.Config.checked}):
      raises {!Spec_error} when [jobs < 1] or [retries < 0].  Defaults:
      pool width, no retries. *)
  val make : ?jobs:int -> ?retries:int -> (string * Core.Toolchain.job) list -> t

  val with_specs : t -> (string * Core.Toolchain.job) list -> t
  val with_jobs : t -> int option -> t
  val with_retries : t -> int -> t

  (** Check an arbitrary record; [Error] names the violated constraint. *)
  val validate : t -> (t, string) result

  (** [validate], raising {!Spec_error}. *)
  val checked : t -> t

  (** Parse a full [xmt.campaign.v1] document: the ["jobs"] list (and
      ["defaults"]) via {!jobs_of_json} plus an optional top-level
      ["exec"] object [{"jobs": N, "retries": N}] carrying the
      execution knobs (other keys are ignored) — the one spelling shared
      by campaign files and the [xmtserved] wire protocol.  Raises
      {!Spec_error} / {!Xmtsim.Config.Bad_config} like {!jobs_of_json}. *)
  val of_json : Obs.Json.t -> t

  (** Load a campaign file: the document with every relative path made
      absolute against the file's directory (what a served campaign
      submits, so the daemon's working directory never matters), and
      the request parsed from it. *)
  val load_file : string -> Obs.Json.t * t
end

(** Execute a {!Request.t} — the engine proper; {!run} is a thin
    wrapper.  Optional arguments are the execution environment: [pool],
    [artifacts], and the [on_event]/[metrics]/[stream] telemetry
    consumers, with exactly the semantics documented on {!run}. *)
val run_request :
  ?pool:Pool.t ->
  ?artifacts:Core.Toolchain.Artifacts.t ->
  ?on_event:(event -> unit) ->
  ?metrics:Obs.Metrics.t ->
  ?stream:Obs.Stream.t ->
  Request.t ->
  job_result array

(** [run ~jobs specs] executes every [(name, job)] pair and returns the
    results in submission order ([Request.make] + {!run_request}).

    [pool] is the persistent executor to run on; without one a
    transient pool of [jobs] workers is created for this call and shut
    down after.  [jobs] is the executor width (default: the pool's
    width, or 1 without a pool); it is always clamped to the number of
    jobs, so [~jobs:8] with 2 jobs uses 2 workers — never 6 idle
    domains.  [retries] is the per-job retry budget on failure
    (default 0).  [artifacts] is a shared compile and harvest cache
    ({!Core.Toolchain.Artifacts}); without one a fresh cache still
    deduplicates compiles and harvests within this campaign.  [on_event] is called
    for every lifecycle event under the progress lock, so callbacks may
    print or mutate shared state without further synchronization.
    [metrics] receives [campaign.jobs.started] / [.finished] /
    [.failed] counters and the [campaign.wall_seconds] gauge.  Without
    any of [on_event]/[metrics]/[stream], workers touch only the job
    cursor and their own result slots — the hot path takes no lock at
    all.

    [stream] multiplexes the campaign onto a live [xmt.events.v1]
    telemetry stream ({!Obs.Stream}): a [campaign.start] record, one
    [job.start] and one [job.done] (status, attempts, cycles,
    instructions and simulated stats, or the failure text) per job, a
    [campaign.progress] record per completion (completed/total,
    ok/failed, running worker occupancy, jobs/sec throughput and the
    ETA it implies) and a final [campaign.done] summary.  All emissions
    happen under the progress lock — the stream has exactly one
    consumer however many domains run jobs — and each job's records
    carry [("job", index)] plus a per-job sequence number [jseq], so
    {!Obs.Stream.canonicalize} renders serial and parallel streams of
    the same campaign byte-identical (the determinism contract CI
    diffs). *)
val run :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?retries:int ->
  ?artifacts:Core.Toolchain.Artifacts.t ->
  ?on_event:(event -> unit) ->
  ?metrics:Obs.Metrics.t ->
  ?stream:Obs.Stream.t ->
  (string * Core.Toolchain.job) list ->
  job_result array

val ok_count : job_result array -> int
val failed_count : job_result array -> int

(** The one per-job step, shared by {!run_request}'s workers and the
    [xmtserved] scheduler: [on_start typ fields] with the [job.start]
    record, then up to [1 + retries] attempts through the shared
    [artifacts] cache (a raising attempt is captured — exception text
    and raw backtrace — and retried), then [on_done result typ fields]
    with the [job.done] record (config/mode/attempts, the outcome's
    fields as in the report, and the host [wall_seconds] that
    canonicalization strips).  Each record carries [job] (the index)
    and [jseq] (0 for start, 1 for done), the key
    {!Obs.Stream.canonicalize} sorts on.  The callbacks are where a
    caller serializes, counts and emits. *)
val job_step :
  artifacts:Core.Toolchain.Artifacts.t ->
  retries:int ->
  on_start:(string -> (string * Obs.Json.t) list -> unit) ->
  on_done:(job_result -> string -> (string * Obs.Json.t) list -> unit) ->
  index:int ->
  name:string ->
  Core.Toolchain.job ->
  job_result

(** The deterministic fields of a [campaign.progress] record; the
    in-process engine appends its host-only keys (occupancy,
    throughput, ETA). *)
val progress_fields :
  completed:int -> total:int -> ok:int -> failed:int -> (string * Obs.Json.t) list

(** The deterministic fields of a [campaign.done] record ([jobs], [ok],
    [failed]). *)
val done_fields : total:int -> ok:int -> failed:int -> (string * Obs.Json.t) list

(** The [xmt.campaign.v1] report: per-job stats plus an aggregate.
    [host] (default true) includes host-dependent fields — per-job and
    total wall-clock, throughput, worker count, backtraces.  With
    [~host:false] the report depends only on simulated results, so a
    parallel and a serial run of the same campaign render byte-identical
    JSON — the determinism contract CI diffs. *)
val report_to_json :
  ?host:bool -> ?workers:int -> job_result array -> Obs.Json.t

(** Merge the per-job [xmt.profile.v1] reports of the profiled jobs into
    one campaign-level CPI stack (aggregate bucket cycles and per-function
    attribution summed across jobs).  [None] when no job was profiled.
    Also embedded in {!report_to_json} under ["profile"]. *)
val merged_profile_json : job_result array -> Obs.Json.t option

(** One-line progress printer for [on_event] (writes to [stderr]). *)
val progress_printer : total:int -> event -> unit

(** {1 Campaign files}

    [xmt.campaign.v1] input: [{"schema": "xmt.campaign.v1", "jobs":
    [{...}]}] where each job object takes ["name"], ["source"] (path) or
    ["inline"] (XMTC text), ["preset"], ["set"] (override strings),
    ["mode"] ("cycle"/"functional"), ["memmap"] (path), ["seed"],
    ["max_cycles"] (at least 1), ["max_instructions"], ["racecheck"] (bool: attach
    the race checker; the job's result gains a ["races"] member with the
    [xmt.races.v1] report) and ["options"] (object with [opt_level],
    [cluster], [prefetch], [nbstore], [fences], [outline] booleans/ints).
    A top-level ["defaults"] object provides fallbacks for every job
    field. *)

exception Spec_error of string

(** Parse a campaign spec; relative ["source"], ["memmap"] and
    ["calibration"] paths are opened from the process working directory
    ({!Request.load_file} first makes a file's absolute).  Raises
    {!Spec_error} on malformed input and {!Xmtsim.Config.Bad_config} on
    an invalid configuration. *)
val jobs_of_json : Obs.Json.t -> (string * Core.Toolchain.job) list
