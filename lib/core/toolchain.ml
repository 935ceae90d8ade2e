type compiled = { cc : Compiler.Driver.output; image : Isa.Program.image }

let compile ?options ?memmap src =
  let cc, image = Compiler.Driver.compile_to_image ?options ?memmap src in
  { cc; image }

(* What a predict job takes from its functional pass: everything but
   the model's price *)
type harvest = {
  h_output : string;
  h_instructions : int;
  h_stats : Xmtsim.Stats.t;
  h_profile : Xmtsim.Reuseprofile.snapshot;
}

let harvest ?max_instructions image =
  let rp = Xmtsim.Reuseprofile.create () in
  let r = Xmtsim.Functional_mode.run ?max_instructions ~profile:rp image in
  {
    h_output = r.Xmtsim.Functional_mode.output;
    h_instructions = r.Xmtsim.Functional_mode.instructions;
    h_stats = r.Xmtsim.Functional_mode.stats;
    h_profile = Xmtsim.Reuseprofile.snapshot rp;
  }

(* ------------------------------------------------------------------ *)
(* Shared compiled artifacts and their harvests.

   A design-space sweep simulates the same program under many machine
   configurations: the (source, compile-options, memmap) triple is
   identical across the sweep points, so compiling per job is pure
   waste — and in a parallel campaign it is the dominant per-job cost
   and the dominant source of cross-domain allocation (every compile
   rebuilds the whole IR).  A predict job's functional pass is waste
   the same way: it reads only the image and the instruction budget,
   so every sweep point of one program harvests the same reuse
   profile.

   An [Artifacts.t] makes both once-per-key: the first job with a key
   does the work, concurrent jobs with the same key block on the
   condition variable until it is done, and everyone shares the same
   read-only value.  A harvest lives in its artifact's entry, keyed by
   the budget.  Sharing is safe because nothing downstream mutates
   either: [Xmtsim.Mem.load] blits [image.data_init]'s segments (the
   memory map's own arrays among them) into a fresh store per machine,
   the race checker's static analysis only reads [cc], [Predict.Model]
   only reads the snapshot, and each predict job gets its own copy of
   the harvest's [Stats.t]. *)

module Artifacts = struct
  type key = {
    k_source : string;
    k_options : Compiler.Driver.options;
    k_memmap : Isa.Memmap.t;
  }

  type 'a slot = Building | Ready of 'a

  (* A compiled artifact and the harvests of its image, by budget *)
  type entry = { compiled : compiled; harvests : (int option, harvest slot) Hashtbl.t }

  type counts = { mutable hits : int; mutable misses : int }

  type t = {
    tbl : (key, entry slot) Hashtbl.t;
    lock : Mutex.t;  (** guards [tbl], every entry's [harvests] and the counts *)
    turned : Condition.t;  (** signaled whenever a slot changes state *)
    compiles : counts;
    harvested : counts;
  }

  let create () =
    {
      tbl = Hashtbl.create 16;
      lock = Mutex.create ();
      turned = Condition.create ();
      compiles = { hits = 0; misses = 0 };
      harvested = { hits = 0; misses = 0 };
    }

  (* The value of [k] in [tbl], made by [make] if no one has made it
     yet.  A failing [make] removes its Building slot and re-raises, so
     a retry (or the next job with the key) makes it again — cached
     failures would break the campaign engine's per-job retry
     semantics. *)
  let once t counts tbl k make =
    Mutex.lock t.lock;
    let rec await () =
      match Hashtbl.find_opt tbl k with
      | Some (Ready v) ->
        counts.hits <- counts.hits + 1;
        Mutex.unlock t.lock;
        v
      | Some Building ->
        Condition.wait t.turned t.lock;
        await ()
      | None -> (
        Hashtbl.replace tbl k Building;
        counts.misses <- counts.misses + 1;
        Mutex.unlock t.lock;
        match make () with
        | v ->
          Mutex.lock t.lock;
          Hashtbl.replace tbl k (Ready v);
          Condition.broadcast t.turned;
          Mutex.unlock t.lock;
          v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock t.lock;
          Hashtbl.remove tbl k;
          Condition.broadcast t.turned;
          Mutex.unlock t.lock;
          Printexc.raise_with_backtrace e bt)
    in
    await ()

  let entry t ?(options = Compiler.Driver.default_options) ?(memmap = []) src =
    once t t.compiles t.tbl { k_source = src; k_options = options; k_memmap = memmap }
      (fun () -> { compiled = compile ~options ~memmap src; harvests = Hashtbl.create 1 })

  let get t ?options ?memmap src = (entry t ?options ?memmap src).compiled

  let harvest t e ?max_instructions () =
    once t t.harvested e.harvests max_instructions (fun () ->
        harvest ?max_instructions e.compiled.image)

  let read t counts =
    Mutex.lock t.lock;
    let r = (counts.hits, counts.misses) in
    Mutex.unlock t.lock;
    r

  let stats t = read t t.compiles
  let harvest_stats t = read t t.harvested
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
   assembled into one xmt.races.v1 report; [None] unless the job is
   race-checked. *)
let races ?dynamic j cc =
  if j.racecheck then
    Some (Racecheck.report ?dynamic (match cc with Some cc -> Racecheck.analyze cc | None -> []))
  else None

(* The predict arm: [harvest ()] makes or shares the functional pass
   that harvests a reuse profile, the analytical model prices it; no
   cycle machine, so [events] is 0.  The config is checked and the
   calibration loaded first, so a bad sweep point fails without
   harvesting. *)
let predict ?on_reuse ?cc j harvest =
  let config = job_config j in
  let cal =
    match j.calibration with
    | None -> Predict.Calibrate.default
    | Some file -> Predict.Calibrate.load_file file
  in
  let h = harvest () in
  Option.iter (fun f -> f h.h_profile) on_reuse;
  let pred =
    Predict.Model.predict ~coeffs:cal.Predict.Calibrate.coeffs
      ~residual_std_pct:cal.Predict.Calibrate.residual_std_pct ~config h.h_profile
  in
  {
    output = h.h_output;
    cycles = pred.Predict.Model.predicted_cycles;
    instructions = h.h_instructions;
    events = 0;
    stats = Xmtsim.Stats.copy h.h_stats;
    races = races j cc;
    profile = None;
    predict =
      Some
        (Predict.Model.to_json
           ~calibration:(Predict.Calibrate.summary_json cal)
           ~config_name:config.Xmtsim.Config.name pred);
  }

let run_image ?stream ?heartbeat_cycles ?before_run ?on_reuse ?cc j image =
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
        races = races ?dynamic:(Option.map Xmtsim.Racedetect.to_json rd) j cc;
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
      races = races j cc;
      profile = None;
      predict = None;
    }
  | Predict ->
    predict ?on_reuse ?cc j (fun () -> harvest ?max_instructions:j.max_instructions image)

(* Library callers treat a cycle run stopped by its budget as failed *)
let run_to_halt ?stream ?heartbeat_cycles j (c : compiled) =
  try run_image ?stream ?heartbeat_cycles ~cc:c.cc j c.image
  with Budget_exhausted _ ->
    raise (Xmtsim.Machine.Sim_error "cycle budget exhausted before halt")

let run_job ?artifacts ?stream ?heartbeat_cycles j =
  let options = j.options and memmap = j.memmap in
  match (artifacts, j.mode) with
  | None, _ -> run_to_halt ?stream ?heartbeat_cycles j (compile ~options ~memmap j.source)
  | Some a, Predict ->
    let e = Artifacts.entry a ~options ~memmap j.source in
    predict ~cc:e.Artifacts.compiled.cc j
      (Artifacts.harvest a e ?max_instructions:j.max_instructions)
  | Some a, (Cycle | Functional) ->
    run_to_halt ?stream ?heartbeat_cycles j (Artifacts.get a ~options ~memmap j.source)

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
