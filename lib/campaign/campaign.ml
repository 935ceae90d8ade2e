(** Parallel simulation-campaign engine — see campaign.mli.

    Execution rides the persistent {!Pool}: helper domains created once
    and reused across [run] calls, each participant pulling the next job
    index from one atomic cursor.  Every result lands in its submission
    slot — so ordering is deterministic whatever the completion order.
    Compiles and predict harvests are deduplicated through a shared
    {!Core.Toolchain.Artifacts} cache (a sweep compiles and harvests
    once and simulates or prices many configs against the same
    read-only program and profile), and the
    progress lock is off the hot path: without telemetry consumers the
    workers touch no shared state but their own result slots, and with
    a stream attached each completion emits one [campaign.progress]
    rollup while per-job records keep the canonical (job, jseq)
    order. *)

module Pool = Pool

type failure = { f_exn : string; f_backtrace : string }

type job_result = {
  r_index : int;
  r_name : string;
  r_job : Core.Toolchain.job;
  r_attempts : int;
  r_wall_seconds : float;
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

exception Spec_error of string

(* The first-class campaign request (see mli): what to run, as data.
   [run_request] consumes it; [Request] (below, after the JSON parser it
   reuses) carries the builders and the wire/file parser. *)
type request = {
  specs : (string * Core.Toolchain.job) list;
  jobs : int option;
  retries : int;
}

module J = Obs.Json

let stats_json (s : Xmtsim.Stats.t) =
  J.Obj
    [
      ("tcu_busy_cycles", J.Int s.Xmtsim.Stats.tcu_busy_cycles);
      ("tcu_memwait_cycles", J.Int s.Xmtsim.Stats.tcu_memwait_cycles);
      ("icn_packets", J.Int s.Xmtsim.Stats.icn_packets);
      ("cache_hits", J.Int s.Xmtsim.Stats.cache_hits);
      ("cache_misses", J.Int s.Xmtsim.Stats.cache_misses);
      ("rocache_hits", J.Int s.Xmtsim.Stats.rocache_hits);
      ("rocache_misses", J.Int s.Xmtsim.Stats.rocache_misses);
      ("dram_reads", J.Int s.Xmtsim.Stats.dram_reads);
      ("ps_ops", J.Int s.Xmtsim.Stats.ps_ops);
      ("spawns", J.Int s.Xmtsim.Stats.spawns);
      ("virtual_threads", J.Int s.Xmtsim.Stats.virtual_threads);
    ]

(* The deterministic fields of a job's outcome, shared by the [job.done]
   record and the report's per-job result. *)
let outcome_fields = function
  | Ok run ->
    [
      ("status", J.Str "ok");
      ("cycles", J.Int run.Core.Toolchain.cycles);
      ("instructions", J.Int run.Core.Toolchain.instructions);
      ("events", J.Int run.Core.Toolchain.events);
      ("output", J.Str run.Core.Toolchain.output);
      ("stats", stats_json run.Core.Toolchain.stats);
    ]
  | Error f -> [ ("status", J.Str "failed"); ("error", J.Str f.f_exn) ]

(* The stream-facing per-job records.  Every one carries the job's
   submission index and a per-job monotonic sequence number [jseq]
   (0 = start, 1 = done), so a parallel run's interleaved stream sorts
   into the same canonical order as a serial run's
   ({!Obs.Stream.canonicalize}).  Host-dependent fields (wall-clock) are
   the ones canonicalization strips. *)
let job_done_fields r =
  [
    ("job", J.Int r.r_index);
    ("jseq", J.Int 1);
    ("name", J.Str r.r_name);
    ("config", J.Str r.r_job.Core.Toolchain.config.Xmtsim.Config.name);
    ("mode", J.Str (Core.Toolchain.mode_name r.r_job.Core.Toolchain.mode));
    ("attempts", J.Int r.r_attempts);
  ]
  @ outcome_fields r.r_outcome
  @ [ ("wall_seconds", J.Float r.r_wall_seconds) ]

let progress_fields ~completed ~total ~ok ~failed =
  [ ("completed", J.Int completed); ("total", J.Int total); ("ok", J.Int ok); ("failed", J.Int failed) ]

let done_fields ~total ~ok ~failed =
  [ ("jobs", J.Int total); ("ok", J.Int ok); ("failed", J.Int failed) ]

(* The one per-job step (see mli).  Bounded retry keeps the last
   failure if every attempt raises.  The raw backtrace is captured first
   — formatting the exception (which may run arbitrary printers) can
   itself raise or record a new backtrace and clobber the one we want. *)
let job_step ~artifacts ~retries ~on_start ~on_done ~index ~name job =
  on_start "job.start" [ ("job", J.Int index); ("jseq", J.Int 0); ("name", J.Str name) ];
  let t0 = Obs.Clock.now () in
  let rec attempt k =
    match Core.Toolchain.run_job ~artifacts job with
    | run -> (k, Ok run)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let f = { f_exn = Printexc.to_string e; f_backtrace = Printexc.raw_backtrace_to_string bt } in
      if k <= retries then attempt (k + 1) else (k, Error f)
  in
  let r_attempts, r_outcome = attempt 1 in
  let r =
    { r_index = index; r_name = name; r_job = job; r_attempts;
      r_wall_seconds = Obs.Clock.elapsed_since t0; r_outcome }
  in
  on_done r "job.done" (job_done_fields r);
  r

let ok_count rs =
  Array.fold_left
    (fun acc r -> if Result.is_ok r.r_outcome then acc + 1 else acc)
    0 rs

let failed_count rs = Array.length rs - ok_count rs

let run_request ?pool ?artifacts ?on_event ?metrics ?stream (req : request) =
  let { specs; jobs; retries } = req in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let results = Array.make n None in
  let lock = Mutex.create () in
  (* clamp the executor count to the remaining jobs: ~jobs:8 with 2
     jobs must not pay for 7 idle domains *)
  let workers =
    let requested =
      match (jobs, pool) with
      | Some j, _ -> j
      | None, Some p -> Pool.width p
      | None, None -> 1
    in
    let cap = match pool with Some p -> Pool.width p | None -> max_int in
    max 1 (min requested (min cap (max 1 n)))
  in
  let artifacts =
    (* dedup compiles and harvests within the campaign even when the
       caller keeps no persistent cache *)
    match artifacts with
    | Some a -> a
    | None -> Core.Toolchain.Artifacts.create ()
  in
  let t0 = Obs.Clock.now () in
  (* progress totals — mutated under [lock] only, and only when a
     telemetry consumer is attached *)
  let started = ref 0 and completed = ref 0 in
  let ok = ref 0 and failed = ref 0 in
  let semit typ fields =
    match stream with
    | Some s -> Obs.Stream.emit s ~typ fields
    | None -> ()
  in
  (* completed/total, worker occupancy, and an ETA from the running
     throughput estimate — emitted at every completion *)
  let stream_progress () =
    let elapsed = Obs.Clock.elapsed_since t0 in
    let rate =
      if elapsed > 0.0 then float_of_int !completed /. elapsed else 0.0
    in
    let eta =
      if rate > 0.0 then float_of_int (n - !completed) /. rate else 0.0
    in
    semit "campaign.progress"
      (progress_fields ~completed:!completed ~total:n ~ok:!ok ~failed:!failed
      @ [
          ("running", J.Int (!started - !completed));
          ("workers", J.Int workers);
          ("elapsed_seconds", J.Float elapsed);
          ("jobs_per_sec", J.Float rate);
          ("eta_seconds", J.Float eta);
        ])
  in
  (* metric handles are created up front in the calling domain — the
     registry hashtable is not safe to grow concurrently *)
  let m_started, m_finished, m_failed, m_wall =
    match metrics with
    | None -> (None, None, None, None)
    | Some reg ->
      ( Some
          (Obs.Metrics.counter reg ~help:"campaign jobs started"
             "campaign.jobs.started"),
        Some
          (Obs.Metrics.counter reg ~help:"campaign jobs finished ok"
             "campaign.jobs.finished"),
        Some
          (Obs.Metrics.counter reg ~help:"campaign jobs failed"
             "campaign.jobs.failed"),
        Some
          (Obs.Metrics.gauge reg ~help:"campaign wall-clock seconds"
             "campaign.wall_seconds") )
  in
  let bump c = Option.iter (fun c -> Obs.Metrics.inc c) c in
  (* whether any per-job consumer needs the serializing lock; without
     one the workers never touch shared mutable state per job *)
  let serialized = on_event <> None || metrics <> None || stream <> None in
  (* [also] runs under the same lock as the metric bump and the user
     callback: the lock is the stream's single consumer, serializing
     every worker domain's emissions *)
  let notify ?(also = fun () -> ()) counter ev =
    Mutex.protect lock (fun () ->
        bump counter;
        also ();
        Option.iter (fun f -> f ev) on_event)
  in
  let execute i =
    let name, job = specs.(i) in
    let on_start typ fields =
      if serialized then
        notify m_started
          (Job_started { index = i; name })
          ~also:(fun () ->
            incr started;
            semit typ fields)
    in
    let on_done r typ fields =
      if serialized then
        let counter, ev =
          match r.r_outcome with
          | Ok _ ->
            (m_finished, Job_finished { index = i; name; wall_seconds = r.r_wall_seconds })
          | Error f ->
            (m_failed, Job_failed { index = i; name; attempts = r.r_attempts; error = f.f_exn })
        in
        notify counter ev ~also:(fun () ->
            incr completed;
            incr (if Result.is_ok r.r_outcome then ok else failed);
            semit typ fields;
            stream_progress ())
    in
    results.(i) <- Some (job_step ~artifacts ~retries ~on_start ~on_done ~index:i ~name job)
  in
  (* the one cursor: each participant claims the next unrun index *)
  let next = Atomic.make 0 in
  let step ~worker:_ =
    let i = Atomic.fetch_and_add next 1 in
    i < n && (execute i; true)
  in
  semit "campaign.start" [ ("jobs", J.Int n); ("workers", J.Int workers) ];
  Printexc.record_backtrace true;
  (match pool with
  | Some p -> Pool.run p ~participants:workers step
  | None -> Pool.with_pool ~workers (fun p -> Pool.run p step));
  let wall = Obs.Clock.elapsed_since t0 in
  let results =
    Array.map
      (function Some r -> r | None -> assert false (* every slot was filled *))
      results
  in
  let n_ok = ok_count results in
  Option.iter (fun g -> Obs.Metrics.set g wall) m_wall;
  semit "campaign.done"
    (done_fields ~total:n ~ok:n_ok ~failed:(n - n_ok)
    @ [ ("workers", J.Int workers); ("wall_seconds", J.Float wall) ]);
  results

(* ------------------------------------------------------------------ *)
(* The xmt.campaign.v1 report *)

let result_json ~host r =
  let base =
    [
      ("index", J.Int r.r_index);
      ("name", J.Str r.r_name);
      ("config", J.Str r.r_job.Core.Toolchain.config.Xmtsim.Config.name);
      ( "mode",
        J.Str (Core.Toolchain.mode_name r.r_job.Core.Toolchain.mode) );
      ( "seed",
        match r.r_job.Core.Toolchain.seed with
        | Some s -> J.Int s
        | None -> J.Int r.r_job.Core.Toolchain.config.Xmtsim.Config.seed );
      ("attempts", J.Int r.r_attempts);
    ]
  in
  let outcome =
    outcome_fields r.r_outcome
    @
    match r.r_outcome with
    | Ok run ->
      (match run.Core.Toolchain.races with
        | Some j -> [ ("races", j) ]
        | None -> [])
      @ (match run.Core.Toolchain.profile with
        | Some j -> [ ("profile", j) ]
        | None -> [])
      @ (match run.Core.Toolchain.predict with
        | Some j -> [ ("predict", j) ]
        | None -> [])
    | Error f -> if host then [ ("backtrace", J.Str f.f_backtrace) ] else []
  in
  let host_fields =
    if host then [ ("wall_seconds", J.Float r.r_wall_seconds) ] else []
  in
  J.Obj (base @ outcome @ host_fields)

(* Merge the per-job xmt.profile.v1 reports into one campaign-level CPI
   stack: bucket cycles of the aggregate rows summed across jobs, plus a
   merged per-function attribution.  Works on the JSON (the run records
   cross domains as plain data), so a job whose profile is missing or
   malformed simply contributes nothing. *)
let merged_profile_json rs =
  let profiles =
    Array.to_list rs
    |> List.filter_map (fun r ->
           match r.r_outcome with
           | Ok run -> run.Core.Toolchain.profile
           | Error _ -> None)
  in
  match profiles with
  | [] -> None
  | _ ->
    let buckets = Hashtbl.create 8 in
    let funcs = Hashtbl.create 16 in
    let total = ref 0 in
    let add tbl k n =
      Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    in
    List.iter
      (fun p ->
        (match J.member "total_ticks" p with
        | Some v -> total := !total + Option.value ~default:0 (J.to_int v)
        | None -> ());
        (match J.member "aggregate" p with
        | Some (J.Obj fields) ->
          List.iter
            (fun (name, v) ->
              match J.to_int v with
              | Some n -> add buckets name n
              | None -> ())
            fields
        | _ -> ());
        match J.member "attribution" p with
        | Some attr -> (
          match J.member "by_func" attr with
          | Some (J.List fns) ->
            List.iter
              (fun fj ->
                match (J.member "func" fj, J.member "cycles" fj) with
                | Some (J.Str fn), Some c ->
                  add funcs fn (Option.value ~default:0 (J.to_int c))
                | _ -> ())
              fns
          | _ -> ())
        | None -> ())
      profiles;
    let sorted tbl =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (ka, va) (kb, vb) -> compare (vb, ka) (va, kb))
    in
    Some
      (J.Obj
         [
           ("schema", J.Str "xmt.profile.v1");
           ("merged_jobs", J.Int (List.length profiles));
           ("total_ticks", J.Int !total);
           ( "aggregate",
             J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (sorted buckets)) );
           ( "by_func",
             J.List
               (List.map
                  (fun (fn, c) ->
                    J.Obj [ ("func", J.Str fn); ("cycles", J.Int c) ])
                  (sorted funcs)) );
         ])

let report_to_json ?(host = true) ?workers rs =
  let sum f =
    Array.fold_left
      (fun acc r ->
        match r.r_outcome with Ok run -> acc + f run | Error _ -> acc)
      0 rs
  in
  let wall = Array.fold_left (fun acc r -> acc +. r.r_wall_seconds) 0.0 rs in
  let aggregate =
    [
      ("ok", J.Int (ok_count rs));
      ("failed", J.Int (failed_count rs));
      ("total_cycles", J.Int (sum (fun r -> r.Core.Toolchain.cycles)));
      ( "total_instructions",
        J.Int (sum (fun r -> r.Core.Toolchain.instructions)) );
      ("total_events", J.Int (sum (fun r -> r.Core.Toolchain.events)));
    ]
    @
    if host then
      [
        ("job_wall_seconds", J.Float wall);
        ( "jobs_per_sec",
          J.Float
            (if wall > 0.0 then float_of_int (Array.length rs) /. wall
             else 0.0) );
      ]
    else []
  in
  J.Obj
    ([ ("schema", J.Str "xmt.campaign.v1"); ("jobs", J.Int (Array.length rs)) ]
    @ (match workers with
      | Some w when host -> [ ("workers", J.Int w) ]
      | _ -> [])
    @ [
        ( "results",
          J.List (Array.to_list (Array.map (result_json ~host) rs)) );
        ("aggregate", J.Obj aggregate);
      ]
    @
    match merged_profile_json rs with
    | Some p -> [ ("profile", p) ]
    | None -> [])

let progress_printer ~total =
  let done_ = ref 0 in
  fun ev ->
    match ev with
    | Job_started _ -> ()
    | Job_finished { name; wall_seconds; _ } ->
      incr done_;
      Printf.eprintf "[%d/%d] %s ok (%.2fs)\n%!" !done_ total name wall_seconds
    | Job_failed { name; attempts; error; _ } ->
      incr done_;
      Printf.eprintf "[%d/%d] %s FAILED after %d attempt%s: %s\n%!" !done_
        total name attempts
        (if attempts = 1 then "" else "s")
        error

(* ------------------------------------------------------------------ *)
(* Campaign files (xmt.campaign.v1 input) *)

let fail fmt = Printf.ksprintf (fun s -> raise (Spec_error s)) fmt

let opt_str name j =
  match J.member name j with
  | Some (J.Str s) -> Some s
  | Some J.Null | None -> None
  | Some _ -> fail "%S must be a string" name

let opt_int name j =
  match J.member name j with
  | Some v -> (
    match J.to_int v with
    | Some i -> Some i
    | None -> fail "%S must be an integer" name)
  | None -> None

let opt_bool name j =
  match J.member name j with
  | Some (J.Bool b) -> Some b
  | Some _ -> fail "%S must be a boolean" name
  | None -> None

let str_list name j =
  match J.member name j with
  | Some (J.List xs) ->
    List.map
      (function J.Str s -> s | _ -> fail "%S must be a list of strings" name)
      xs
  | Some _ -> fail "%S must be a list of strings" name
  | None -> []

let read_file path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
  | exception Sys_error msg -> fail "cannot read %s: %s" path msg

(* job-level value with a campaign-level fallback *)
let inherited get job defaults =
  match get job with Some _ as v -> v | None -> get defaults

let options_of_json defaults j =
  let merged name =
    match (J.member name j, defaults) with
    | (Some _ as v), _ -> v
    | None, Some d -> J.member name d
    | None, None -> None
  in
  let o = J.Obj (List.filter_map (fun n -> Option.map (fun v -> (n, v)) (merged n))
                   [ "opt_level"; "cluster"; "prefetch"; "prefetch_max_per_block";
                     "nbstore"; "fences"; "layout_opt"; "postpass_fix"; "outline" ])
  in
  let d = Compiler.Driver.default_options in
  let iv name default = Option.value ~default (opt_int name o) in
  let bv name default = Option.value ~default (opt_bool name o) in
  {
    Compiler.Driver.opt_level = iv "opt_level" d.Compiler.Driver.opt_level;
    prefetch = bv "prefetch" d.Compiler.Driver.prefetch;
    prefetch_max_per_block =
      iv "prefetch_max_per_block" d.Compiler.Driver.prefetch_max_per_block;
    nbstore = bv "nbstore" d.Compiler.Driver.nbstore;
    fences = bv "fences" d.Compiler.Driver.fences;
    cluster = iv "cluster" d.Compiler.Driver.cluster;
    layout_opt = bv "layout_opt" d.Compiler.Driver.layout_opt;
    postpass_fix = bv "postpass_fix" d.Compiler.Driver.postpass_fix;
    outline = bv "outline" d.Compiler.Driver.outline;
  }

(* The job fields that name files: a spec file's relative ones resolve
   against its directory, in every job and in "defaults". *)
let path_fields = [ "source"; "memmap"; "calibration" ]

let resolve_paths ~dir j =
  let resolve = function
    | J.Obj kvs ->
      J.Obj
        (List.map
           (function
             | k, J.Str p when List.mem k path_fields && Filename.is_relative p ->
               (k, J.Str (Filename.concat dir p))
             | kv -> kv)
           kvs)
    | o -> o
  in
  match j with
  | J.Obj kvs ->
    J.Obj
      (List.map
         (function
           | "defaults", d -> ("defaults", resolve d)
           | "jobs", J.List js -> ("jobs", J.List (List.map resolve js))
           | kv -> kv)
         kvs)
  | j -> j

let job_of_json ~defaults ~index j =
  let name =
    match opt_str "name" j with
    | Some n -> n
    | None -> Printf.sprintf "job%d" index
  in
  let source =
    match (opt_str "inline" j, inherited (opt_str "source") j defaults) with
    | Some text, _ -> text
    | None, Some path -> read_file path
    | None, None -> fail "job %S: needs \"source\" (path) or \"inline\" (text)" name
  in
  let preset =
    match inherited (opt_str "preset") j defaults with
    | Some p -> p
    | None -> "fpga64"
  in
  let config =
    match Core.Toolchain.preset preset with
    | Ok c -> c
    | Error msg -> fail "job %S: %s" name msg
  in
  (* campaign-level overrides apply first, then the job's own *)
  let config =
    Xmtsim.Config.with_overrides config (str_list "set" defaults @ str_list "set" j)
  in
  let mode =
    match Option.map Core.Toolchain.mode_of_string (inherited (opt_str "mode") j defaults) with
    | None -> Core.Toolchain.Cycle
    | Some (Ok m) -> m
    | Some (Error msg) -> fail "job %S: %s" name msg
  in
  let memmap =
    match inherited (opt_str "memmap") j defaults with
    | None -> []
    | Some p -> (
      try Isa.Memmap.parse_file p with
      | Isa.Memmap.Parse_error { line; msg } ->
        fail "job %S: memmap %s:%d: %s" name p line msg
      | Sys_error msg -> fail "job %S: memmap %s" name msg)
  in
  let options =
    options_of_json (J.member "options" defaults) (Option.value ~default:(J.Obj []) (J.member "options" j))
  in
  let max_cycles = inherited (opt_int "max_cycles") j defaults in
  (match max_cycles with
  | Some m when m < 1 -> fail "job %S: \"max_cycles\" must be >= 1, got %d" name m
  | _ -> ());
  let job =
    Core.Toolchain.job ~name ~options ~memmap ~config ~mode
      ?seed:(inherited (opt_int "seed") j defaults)
      ?max_cycles
      ?max_instructions:(inherited (opt_int "max_instructions") j defaults)
      ?racecheck:(inherited (opt_bool "racecheck") j defaults)
      ?profile:(inherited (opt_bool "profile") j defaults)
      ?calibration:(inherited (opt_str "calibration") j defaults)
      source
  in
  (* validate the sweep point now, not mid-campaign *)
  (match mode with
  | Core.Toolchain.Cycle | Core.Toolchain.Predict ->
    ignore (Core.Toolchain.job_config job)
  | Core.Toolchain.Functional -> ());
  (name, job)

let jobs_of_json j =
  (match J.member "schema" j with
  | Some (J.Str "xmt.campaign.v1") | None -> ()
  | Some (J.Str other) -> fail "unsupported campaign schema %S" other
  | Some _ -> fail "\"schema\" must be a string");
  let defaults = Option.value ~default:(J.Obj []) (J.member "defaults" j) in
  match J.member "jobs" j with
  | Some (J.List (_ :: _ as jobs)) ->
    List.mapi (fun index jj -> job_of_json ~defaults ~index jj) jobs
  | Some (J.List []) -> fail "campaign has no jobs"
  | _ -> fail "missing \"jobs\" list"

(* ------------------------------------------------------------------ *)
(* Requests *)

module Request = struct
  type t = request = {
    specs : (string * Core.Toolchain.job) list;
    jobs : int option;
    retries : int;
  }

  let validate t =
    match t.jobs with
    | Some j when j < 1 -> Error (Printf.sprintf "jobs must be >= 1, got %d" j)
    | _ ->
      if t.retries < 0 then
        Error (Printf.sprintf "retries must be >= 0, got %d" t.retries)
      else Ok t

  let checked t =
    match validate t with Ok t -> t | Error msg -> raise (Spec_error msg)

  let make ?jobs ?(retries = 0) specs = checked { specs; jobs; retries }

  let with_specs t specs = checked { t with specs }
  let with_jobs t jobs = checked { t with jobs }
  let with_retries t retries = checked { t with retries }

  let of_json j =
    let specs = jobs_of_json j in
    match J.member "exec" j with
    | None -> make specs
    | Some (J.Obj _ as e) ->
      make specs ?jobs:(opt_int "jobs" e) ?retries:(opt_int "retries" e)
    | Some _ -> fail "\"exec\" must be an object"

  let load_file path =
    match Obs.Json.of_string (read_file path) with
    | exception Obs.Json.Parse_error msg -> fail "%s: %s" path msg
    | j ->
      let abs = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
      let spec = resolve_paths ~dir:(Filename.dirname abs) j in
      (spec, of_json spec)
end

let run ?pool ?jobs ?retries ?artifacts ?on_event ?metrics ?stream specs =
  run_request ?pool ?artifacts ?on_event ?metrics ?stream
    (Request.make ?jobs ?retries specs)
