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
   [Xmtsim.Mem.load] copies [image.data_words] into a fresh store per
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

(* ------------------------------------------------------------------ *)
(* The job-oriented surface: everything one compile+simulate needs,
   reified as data.  The campaign engine, the benches and the CLI all
   construct jobs; [exec] below is a thin wrapper over [run_job]. *)

type mode = Cycle | Functional | Predict

let mode_name = function
  | Cycle -> "cycle"
  | Functional -> "functional"
  | Predict -> "predict"

let mode_of_string = function
  | "cycle" -> Ok Cycle
  | "functional" -> Ok Functional
  | "predict" -> Ok Predict
  | other -> Error (Printf.sprintf "mode must be cycle|functional|predict, got %S" other)

let preset name =
  match List.assoc_opt name Xmtsim.Config.presets with
  | Some c -> Ok c
  | None ->
    Error
      (Printf.sprintf "unknown configuration preset %S (have: %s)" name
         (String.concat ", " (List.map fst Xmtsim.Config.presets)))

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

exception Budget_exhausted of run

(* Static findings (none for an assembled image: no typed AST or IR to
   analyze) plus, for cycle runs, the dynamic detector's output,
   assembled into one xmt.races.v1 report. *)
let races_report ?dynamic cc =
  Racecheck.report ?dynamic (match cc with Some cc -> Racecheck.analyze cc | None -> [])

let run_image ?stream ?heartbeat_cycles ?before_run ?on_reuse ?cc j image =
  let races ?dynamic () = if j.racecheck then Some (races_report ?dynamic cc) else None in
  match j.mode with
  | Cycle ->
    let m = Xmtsim.Machine.create ~config:(job_config j) image in
    let rd = if j.racecheck then Some (Xmtsim.Racedetect.attach m) else None in
    let prof = if j.profile then Some (Xmtsim.Profile.attach m) else None in
    Option.iter
      (fun s -> ignore (Xmtsim.Heartbeat.attach ?heartbeat_cycles m s : unit -> unit))
      stream;
    Option.iter (fun f -> f m prof) before_run;
    let r = Xmtsim.Machine.run ?max_cycles:j.max_cycles m in
    let stats = Xmtsim.Machine.stats m in
    let run =
      {
        output = r.Xmtsim.Machine.output;
        cycles = r.Xmtsim.Machine.cycles;
        instructions = Xmtsim.Stats.total_instrs stats;
        events = Xmtsim.Machine.events_processed m;
        stats;
        races = races ?dynamic:(Option.map Xmtsim.Racedetect.to_json rd) ();
        profile = Option.map (fun p -> Xmtsim.Profile.(to_json (report p))) prof;
        predict = None;
      }
    in
    if not r.Xmtsim.Machine.halted then raise (Budget_exhausted run);
    run
  | Functional ->
    let r = Xmtsim.Functional_mode.run ?max_instructions:j.max_instructions image in
    {
      output = r.Xmtsim.Functional_mode.output;
      cycles = 0;
      instructions = r.Xmtsim.Functional_mode.instructions;
      events = 0;
      stats = r.Xmtsim.Functional_mode.stats;
      races = races ();
      profile = None;
      predict = None;
    }
  | Predict ->
    (* one functional pass harvests a reuse profile, the analytical
       model prices it; no cycle machine, so [events] is 0 *)
    let config = job_config j in
    let cal =
      match j.calibration with
      | None -> Predict.Calibrate.default
      | Some file -> Predict.Calibrate.load_file file
    in
    let rp = Xmtsim.Reuseprofile.create () in
    let r =
      Xmtsim.Functional_mode.run ?max_instructions:j.max_instructions ~profile:rp image
    in
    let snap = Xmtsim.Reuseprofile.snapshot rp in
    Option.iter (fun f -> f snap) on_reuse;
    let pred =
      Predict.Model.predict ~coeffs:cal.Predict.Calibrate.coeffs
        ~residual_std_pct:cal.Predict.Calibrate.residual_std_pct ~config snap
    in
    {
      output = r.Xmtsim.Functional_mode.output;
      cycles = pred.Predict.Model.predicted_cycles;
      instructions = r.Xmtsim.Functional_mode.instructions;
      events = 0;
      stats = r.Xmtsim.Functional_mode.stats;
      races = races ();
      profile = None;
      predict =
        Some
          (Predict.Model.to_json
             ~calibration:(Predict.Calibrate.summary_json cal)
             ~config_name:config.Xmtsim.Config.name pred);
    }

(* Library callers treat a cycle run stopped by its budget as failed *)
let run_to_halt ?stream ?heartbeat_cycles j (c : compiled) =
  try run_image ?stream ?heartbeat_cycles ~cc:c.cc j c.image
  with Budget_exhausted _ ->
    raise (Xmtsim.Machine.Sim_error "cycle budget exhausted before halt")

let run_job ?artifacts ?stream ?heartbeat_cycles j =
  run_to_halt ?stream ?heartbeat_cycles j
    (match artifacts with
    | None -> compile ~options:j.options ~memmap:j.memmap j.source
    | Some a -> Artifacts.get a ~options:j.options ~memmap:j.memmap j.source)

let run_cycle ?config ?racecheck ?profile ?stream ?heartbeat_cycles ?max_cycles c =
  run_to_halt ?stream ?heartbeat_cycles (job ?config ?racecheck ?profile ?max_cycles "") c

let run_functional ?racecheck ?max_instructions c =
  run_to_halt (job ~mode:Functional ?racecheck ?max_instructions "") c

let run_predict ?config ?racecheck ?calibration ?max_instructions c =
  run_to_halt (job ~mode:Predict ?config ?racecheck ?calibration ?max_instructions "") c

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
