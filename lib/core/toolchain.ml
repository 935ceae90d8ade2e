type compiled = { cc : Compiler.Driver.output; image : Isa.Program.image }

let compile ?options ?memmap src =
  let cc, image = Compiler.Driver.compile_to_image ?options ?memmap src in
  { cc; image }

(* ------------------------------------------------------------------ *)
(* Shared compiled artifacts.

   A design-space sweep simulates the same program under many machine
   configurations: the (source, compile-options, memmap) triple is
   identical across the sweep points, so compiling per job is pure
   waste — and in a parallel campaign it is the dominant per-job cost
   and the dominant source of cross-domain allocation (every compile
   rebuilds the whole IR).  An [Artifacts.t] is a compile-once cache:
   the first job with a given key compiles, concurrent jobs with the
   same key block on the condition variable until the artifact is
   ready, and everyone simulates against the same read-only [compiled]
   value.  That is safe because nothing downstream mutates it:
   [Xmtsim.Mem.load] blits [image.data_words] into a fresh store per
   machine, and the race checker's static analysis only reads [cc]. *)

module Artifacts = struct
  type key = {
    k_source : string;
    k_options : Compiler.Driver.options;
    k_memmap : Isa.Memmap.t;
  }

  type slot = Building | Ready of compiled

  type t = {
    tbl : (key, slot) Hashtbl.t;
    lock : Mutex.t;
    turned : Condition.t;  (** signaled whenever a slot changes state *)
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    {
      tbl = Hashtbl.create 16;
      lock = Mutex.create ();
      turned = Condition.create ();
      hits = 0;
      misses = 0;
    }

  (* Compile [src] or reuse a previous compile of the same key.  A
     failing compile removes its Building slot and re-raises, so a
     retry (or the next job with the key) compiles again — cached
     failures would break the campaign engine's per-job retry
     semantics. *)
  let get t ?(options = Compiler.Driver.default_options) ?(memmap = []) src =
    let key = { k_source = src; k_options = options; k_memmap = memmap } in
    Mutex.lock t.lock;
    let rec await () =
      match Hashtbl.find_opt t.tbl key with
      | Some (Ready c) ->
        t.hits <- t.hits + 1;
        Mutex.unlock t.lock;
        c
      | Some Building ->
        Condition.wait t.turned t.lock;
        await ()
      | None -> (
        Hashtbl.replace t.tbl key Building;
        t.misses <- t.misses + 1;
        Mutex.unlock t.lock;
        match compile ~options ~memmap src with
        | c ->
          Mutex.lock t.lock;
          Hashtbl.replace t.tbl key (Ready c);
          Condition.broadcast t.turned;
          Mutex.unlock t.lock;
          c
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock t.lock;
          Hashtbl.remove t.tbl key;
          Condition.broadcast t.turned;
          Mutex.unlock t.lock;
          Printexc.raise_with_backtrace e bt)
    in
    await ()

  (** (cache hits, compiles actually performed) so far. *)
  let stats t =
    Mutex.lock t.lock;
    let r = (t.hits, t.misses) in
    Mutex.unlock t.lock;
    r
end

type run = {
  output : string;
  cycles : int;
  instructions : int;
  events : int;  (** desim events processed (0 in functional mode) *)
  stats : Xmtsim.Stats.t;
  races : Obs.Json.t option;
      (** [xmt.races.v1] report when the run was race-checked *)
  profile : Obs.Json.t option;
      (** [xmt.profile.v1] CPI-stack report when the run was profiled *)
  predict : Obs.Json.t option;
      (** [xmt.predict.v1] report (predict mode only) *)
}

(* Static findings + (for cycle runs) the dynamic detector's output,
   assembled into one xmt.races.v1 report. *)
let races_report ?dynamic compiled =
  Racecheck.report ?dynamic (Racecheck.analyze compiled.cc)

let run_cycle ?config ?(racecheck = false) ?(profile = false) ?stream
    ?heartbeat_cycles ?max_cycles compiled =
  let m = Xmtsim.Machine.create ?config compiled.image in
  let rd = if racecheck then Some (Xmtsim.Racedetect.attach m) else None in
  let prof = if profile then Some (Xmtsim.Profile.attach m) else None in
  (match stream with
  | Some s -> ignore (Xmtsim.Heartbeat.attach ?heartbeat_cycles m s : unit -> unit)
  | None -> ());
  let r = Xmtsim.Machine.run ?max_cycles m in
  if not r.Xmtsim.Machine.halted then
    raise (Xmtsim.Machine.Sim_error "cycle budget exhausted before halt");
  let stats = Xmtsim.Machine.stats m in
  {
    output = r.Xmtsim.Machine.output;
    cycles = r.Xmtsim.Machine.cycles;
    instructions = Xmtsim.Stats.total_instrs stats;
    events = Xmtsim.Machine.events_processed m;
    stats;
    races =
      Option.map
        (fun rd ->
          races_report ~dynamic:(Xmtsim.Racedetect.to_json rd) compiled)
        rd;
    profile = Option.map (fun p -> Xmtsim.Profile.(to_json (report p))) prof;
    predict = None;
  }

let run_functional ?(racecheck = false) ?max_instructions compiled =
  let r = Xmtsim.Functional_mode.run ?max_instructions compiled.image in
  {
    output = r.Xmtsim.Functional_mode.output;
    cycles = 0;
    instructions = r.Xmtsim.Functional_mode.instructions;
    events = 0;
    stats = r.Xmtsim.Functional_mode.stats;
    (* no cycle machine to observe: static layer only *)
    races = (if racecheck then Some (races_report compiled) else None);
    profile = None;
    predict = None;
  }

(* Predict mode: one functional pass harvests a reuse profile, the
   analytical model prices it.  No cycle machine is built, so [events]
   is 0 and the race layer (like functional mode) is static-only. *)
let run_predict ?config ?(racecheck = false) ?calibration ?max_instructions
    compiled =
  let config =
    Xmtsim.Config.checked (Option.value config ~default:Xmtsim.Config.fpga64)
  in
  let cal =
    match calibration with
    | None -> Predict.Calibrate.default
    | Some file -> Predict.Calibrate.load_file file
  in
  let rp = Xmtsim.Reuseprofile.create () in
  let r =
    Xmtsim.Functional_mode.run ?max_instructions ~profile:rp compiled.image
  in
  let pred =
    Predict.Model.predict ~coeffs:cal.Predict.Calibrate.coeffs
      ~residual_std_pct:cal.Predict.Calibrate.residual_std_pct ~config
      (Xmtsim.Reuseprofile.snapshot rp)
  in
  {
    output = r.Xmtsim.Functional_mode.output;
    cycles = pred.Predict.Model.predicted_cycles;
    instructions = r.Xmtsim.Functional_mode.instructions;
    events = 0;
    stats = r.Xmtsim.Functional_mode.stats;
    races = (if racecheck then Some (races_report compiled) else None);
    profile = None;
    predict =
      Some
        (Predict.Model.to_json
           ~calibration:(Predict.Calibrate.summary_json cal)
           ~config_name:config.Xmtsim.Config.name pred);
  }

(* ------------------------------------------------------------------ *)
(* The job-oriented surface: everything one compile+simulate needs,
   reified as data.  The campaign engine, the benches and the CLI all
   construct jobs; [exec] below is a thin wrapper over [run_job]. *)

type mode = Cycle | Functional | Predict

let mode_name = function
  | Cycle -> "cycle"
  | Functional -> "functional"
  | Predict -> "predict"

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
      (** attach the cycle-accounting profiler; report in [run.profile] *)
  calibration : string option;
      (** predict-mode calibration artifact path; [None] = built-in fit *)
}

let job ?(name = "") ?(options = Compiler.Driver.default_options)
    ?(memmap = []) ?(config = Xmtsim.Config.fpga64) ?(mode = Cycle) ?seed
    ?max_cycles ?max_instructions ?(racecheck = false) ?(profile = false)
    ?calibration source =
  {
    job_name = name;
    source;
    options;
    memmap;
    config;
    mode;
    seed;
    max_cycles;
    max_instructions;
    racecheck;
    profile;
    calibration;
  }

(** The configuration a job actually simulates with: the per-job seed
    folded in, then validated — an inconsistent sweep point fails here,
    before the machine is built. *)
let job_config j =
  let c =
    match j.seed with
    | None -> j.config
    | Some seed -> { j.config with Xmtsim.Config.seed }
  in
  Xmtsim.Config.checked c

let run_job ?artifacts ?stream ?heartbeat_cycles j =
  let compile_job () =
    match artifacts with
    | None -> compile ~options:j.options ~memmap:j.memmap j.source
    | Some a -> Artifacts.get a ~options:j.options ~memmap:j.memmap j.source
  in
  match j.mode with
  | Functional ->
    let compiled = compile_job () in
    run_functional ~racecheck:j.racecheck ?max_instructions:j.max_instructions
      compiled
  | Cycle ->
    let config = job_config j in
    let compiled = compile_job () in
    run_cycle ~config ~racecheck:j.racecheck ~profile:j.profile ?stream
      ?heartbeat_cycles ?max_cycles:j.max_cycles compiled
  | Predict ->
    let config = job_config j in
    let compiled = compile_job () in
    run_predict ~config ~racecheck:j.racecheck ?calibration:j.calibration
      ?max_instructions:j.max_instructions compiled

let exec ?options ?memmap ?config ?stream ?(functional = false) src =
  run_job ?stream
    (job ?options ?memmap ?config
       ~mode:(if functional then Functional else Cycle)
       src)

let machine ?config compiled = Xmtsim.Machine.create ?config compiled.image

let read_global m compiled name len =
  let addr = Isa.Program.address_of compiled.image name in
  Array.init len (fun i ->
      Isa.Value.to_int (Xmtsim.Mem.read (Xmtsim.Machine.mem m) (addr + (4 * i))))
