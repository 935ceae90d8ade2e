(** xmtsim — the XMT simulator driver (paper §III).

    One pipeline: the flags parse into one {!opts} record, one table says
    where each flag and export kind applies, one check holds every
    invocation to it, and one of three runners takes over — a single
    run, an in-process campaign or a campaign served by [xmtserved].

    A single run is a front end over {!Core.Toolchain.run_image}: the
    flags become one {!Core.Toolchain.job}, run in the cycle-accurate,
    fast functional or predict mode exactly as a campaign job would be.
    The CLI adds the observers only a single run has (text and package
    traces, filter and activity plug-ins, power/thermal, the governor,
    span traces, checkpoints) and prints the reports. *)

open Cmdliner
module T = Core.Toolchain
module J = Obs.Json

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* an input or invocation error: one line on stderr, exit 1 *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("xmtsim: " ^ msg);
      exit 1)
    fmt

(* -------- the flags -------- *)

(* The parsed command line.  A flag whose default would hide whether it
   was given is an option (the default is applied where it is used). *)
type opts = {
  input : string option; preset : string option; overrides : string list;
  functional : bool; mode : string option; calibration : string option;
  memmap : string option; max_cycles : int option; stats : bool; racecheck : bool;
  trace : bool; trace_packages : bool; trace_limit : int option; hot : bool;
  profile : bool; profile_interval : int; power_interval : int; floorplan : bool;
  checkpoint_out : string option; checkpoint_at : int option; checkpoint_in : string option;
  governor : bool; governor_interval : int option; no_clock_gating : bool;
  exports : (string * string) list;  (** --export KIND[=PATH], in order *)
  stream : string option; heartbeat_cycles : int option;
  campaign : string option; jobs : int option; retries : int option;
  connect : string option; attach : string option; after : string option;
}

(* the export sink for [kind]: last writer wins *)
let export o kind =
  List.fold_left (fun acc (k, p) -> if k = kind then Some p else acc) None o.exports

(* -------- where each flag applies -------- *)

type front =
  | Single of T.mode  (** a single run in this mode *)
  | Campaign  (** --campaign, in-process *)
  | Submit  (** --connect --campaign *)
  | Attach  (** --connect --attach *)

let single = [ Single T.Cycle; Single T.Functional; Single T.Predict ]
let cycle = [ Single T.Cycle ]
let predict = [ Single T.Predict ]

let export_kinds =
  [
    ("stats", single);
    ("races", single);
    ("trace", cycle);
    ("profile", [ Single T.Cycle; Campaign ]);
    ("predict", predict);
    ("reuseprofile", predict);
    ("campaign", [ Campaign ]);
    ("campaign-det", [ Campaign ]);
  ]

(* Every flag and export kind the invocation gave, with the front ends
   it applies to, in the order they are checked. *)
let given o =
  let set = Option.is_some in
  List.map
    (fun (k, _) ->
      ("--export " ^ k, Option.value ~default:single (List.assoc_opt k export_kinds)))
    o.exports
  @ List.filter_map
      (fun (flag, where, given) -> if given then Some (flag, where) else None)
      [
        ("--calibration", predict, set o.calibration);
        ("--profile", cycle, o.profile);
        ("--governor", cycle, o.governor);
        ("--stream", [ Single T.Cycle; Campaign; Submit; Attach ], set o.stream);
        ("--trace", cycle, o.trace);
        ("--trace-packages", cycle, o.trace_packages);
        ("--hot", cycle, o.hot);
        ("--profile-interval", cycle, o.profile_interval <> 0);
        ("--power-interval", cycle, o.power_interval <> 0);
        ("--floorplan", cycle, o.floorplan);
        ("--checkpoint-in", cycle, set o.checkpoint_in);
        ("--checkpoint-at", cycle, set o.checkpoint_at);
        ("--checkpoint-out", cycle, set o.checkpoint_out);
        ("--no-clock-gating", cycle, o.no_clock_gating);
        ("--max-cycles", cycle, set o.max_cycles);
        ("--trace-limit", cycle, set o.trace_limit);
        ("--governor-interval", cycle, set o.governor_interval);
        ("--heartbeat-cycles", cycle, set o.heartbeat_cycles);
        ("input " ^ Option.value ~default:"" o.input, single, set o.input);
        ("-c/--config", single, set o.preset);
        ("--set", single, o.overrides <> []);
        ("--functional", single, o.functional);
        ("--mode", single, set o.mode);
        ("--memmap", single, set o.memmap);
        ("--stats", single, o.stats);
        ("--racecheck", single, o.racecheck);
        ("--jobs", [ Campaign ], set o.jobs);
        ("--retries", [ Campaign ], set o.retries);
        ("--attach", [ Attach ], set o.attach);
        ("--after", [ Attach ], set o.after);
      ]

(* the flag that left the cycle-accurate mode *)
let mode_flag mode = if mode = T.Functional then "--functional" else "--mode predict"

let front_of o =
  match (o.connect, o.campaign, o.attach) with
  | Some _, Some _, _ -> Submit
  | Some _, None, Some _ -> Attach
  | Some _, None, None ->
    fail "--connect needs --campaign FILE.json (submit) or --attach CID (rejoin)"
  | None, Some _, _ -> Campaign
  | None, None, _ -> (
    (* --functional is the historical spelling of --mode functional; the
       two agree or the invocation is ambiguous *)
    match (Option.map T.mode_of_string o.mode, o.functional) with
    | None, false -> Single T.Cycle
    | None, true | Some (Ok T.Functional), _ -> Single T.Functional
    | Some (Ok m), false -> Single m
    | Some (Ok m), true -> fail "--functional conflicts with --mode %s" (T.mode_name m)
    | Some (Error msg), _ -> fail "--%s" msg)

(* The one check: a flag given where it does not apply exits 1 naming
   it, except a cycle-only one on a single run in another mode (exit 2). *)
let check front o =
  List.iter
    (fun (flag, where) ->
      if not (List.mem front where) then
        match front with
        | Single m when List.mem (Single T.Cycle) where ->
          Printf.eprintf "xmtsim: %s needs the cycle-accurate mode (drop %s)\n" flag
            (mode_flag m);
          exit 2
        | Single _ when List.mem (Single T.Predict) where -> fail "%s needs --mode predict" flag
        | Single _ when List.mem Campaign where -> fail "%s needs --campaign" flag
        | (Single _ | Campaign) when List.mem Attach where ->
          fail "--attach/--after need --connect SOCKET"
        | _ ->
          fail "%s does not apply to %s" flag
            (match front with
            | Campaign -> "--campaign"
            | Submit -> "--connect --campaign"
            | _ -> "--connect --attach"))
    (given o)

(* -------- campaigns, in-process or served -------- *)

(* the spec file, loaded and validated alike on both paths; [adjust]
   applies the in-process overrides under the same error line *)
let load_campaign ?(adjust = Fun.id) file =
  try
    let spec, req = Campaign.Request.load_file file in
    (spec, adjust req)
  with Campaign.Spec_error msg | Xmtsim.Config.Bad_config msg ->
    fail "campaign %s: %s" file msg

let stream_sink o = Option.map Obs.Stream.sink_of_path o.stream

(* the summary line and exit code both paths end on *)
let finish_campaign ~what ~jobs ~ok ~failed ?(host = "") ?(tail = "") () =
  Printf.eprintf "%s: %d jobs, %d ok, %d failed%s\n%s" what jobs ok failed host tail;
  exit (if failed > 0 then 1 else 0)

let run_campaign o file =
  (* the spec file carries the request (including an optional "exec"
     block with default jobs/retries); command-line flags override it *)
  let adjust req =
    let req = if o.jobs = None then req else Campaign.Request.with_jobs req o.jobs in
    let req = Option.fold ~none:req ~some:(Campaign.Request.with_retries req) o.retries in
    (* --export profile at campaign level profiles every cycle-mode job
       and writes the merged CPI stack *)
    if export o "profile" = None then req
    else
      Campaign.Request.with_specs req
        (List.map
           (fun (name, j) -> (name, { j with T.profile = true }))
           req.Campaign.Request.specs)
  in
  let _, req = load_campaign ~adjust file in
  let total = List.length req.Campaign.Request.specs in
  let reg = Obs.Metrics.create () in
  let stream = Option.map Obs.Stream.create (stream_sink o) in
  (* the width run_request clamps to; it runs the jobs on one transient
     pool and deduplicates their compiles through one artifact cache *)
  let effective_workers =
    max 1 (min (Option.value ~default:1 req.Campaign.Request.jobs) total)
  in
  let results =
    Campaign.run_request ~metrics:reg ?stream ~on_event:(Campaign.progress_printer ~total) req
  in
  Option.iter Obs.Stream.close stream;
  let report_path = Option.value ~default:"campaign.json" (export o "campaign") in
  J.write_path ~pretty:true report_path
    (Campaign.report_to_json ~workers:effective_workers results);
  (match export o "campaign-det" with
  | Some p -> J.write_path ~pretty:true p (Campaign.report_to_json ~host:false results)
  | None -> ());
  (match export o "profile" with
  | Some p -> (
    match Campaign.merged_profile_json results with
    | Some j -> J.write_path ~pretty:true p j
    | None ->
      Printf.eprintf
        "xmtsim: no job produced a profile (cycle-mode jobs only)\n")
  | None -> ());
  let wall =
    Option.value ~default:0.0 (Obs.Metrics.gauge_value reg "campaign.wall_seconds")
  in
  (* the human summary goes to stderr so stdout stays pure JSON when a
     report is exported to "-" *)
  finish_campaign ~what:"campaign" ~jobs:total ~ok:(Campaign.ok_count results)
    ~failed:(Campaign.failed_count results)
    ~host:
      (Printf.sprintf ", %.2fs wall (%d worker%s)" wall effective_workers
         (if effective_workers = 1 then "" else "s"))
    ~tail:(if report_path <> "-" then Printf.sprintf "report written to %s\n" report_path else "")
    ()

let run_served o sock =
  (* "JOB:JSEQ", the key printed in the reconnect hint *)
  let after =
    Option.map
      (fun s ->
        match Scanf.sscanf_opt s "%d:%d%!" (fun j s -> (j, s)) with
        | Some p -> p
        | None -> fail "--after wants JOB:JSEQ (two integers)")
      o.after
  in
  (* the spec travels with its paths made absolute: the daemon's working
     directory is not the client's *)
  let spec = Option.map (fun file -> fst (load_campaign file)) o.campaign in
  let sink = stream_sink o in
  let client =
    try Serve.Client.connect sock
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "xmtsim: cannot connect to %s: %s (is xmtserved running?)\n"
        sock (Unix.error_message e);
      exit 3
  in
  (* last (job, jseq) received, for the reconnect hint on a lost link *)
  let last = ref after in
  let lost cid =
    Printf.eprintf "xmtsim: connection to %s lost; the campaign keeps running server-side\n" sock;
    Option.iter
      (fun cid ->
        Printf.eprintf "  resume with: xmtsim --connect %s --attach %s%s\n" sock cid
          (match !last with Some (j, s) -> Printf.sprintf " --after %d:%d" j s | None -> ""))
      cid;
    exit 3
  in
  let on_record r =
    Option.iter (fun k -> last := Some k) (Obs.Stream.job_key r);
    Option.iter (fun s -> s.Obs.Stream.write (J.to_string r)) sink;
    match r with
    | J.Obj kvs when List.assoc_opt "type" kvs = Some (J.Str "campaign.progress") ->
      let geti k = match List.assoc_opt k kvs with Some (J.Int n) -> n | _ -> 0 in
      Printf.eprintf "\r[%d/%d] ok %d, failed %d%!" (geti "completed") (geti "total")
        (geti "ok") (geti "failed")
    | _ -> ()
  in
  let cid =
    try
      match (spec, o.attach) with
      | Some spec, _ -> (
        match Serve.Client.submit client spec with
        | Ok cid ->
          Printf.eprintf "campaign %s accepted by %s\n%!" cid sock;
          cid
        | Error frame -> fail "server rejected the campaign: %s" (J.to_string frame))
      | None, cid -> (
        let cid = Option.get cid in
        match Serve.Client.attach client ~cid ?after () with
        | Ok () -> cid
        | Error frame -> fail "attach %s failed: %s" cid (J.to_string frame))
    with Serve.Client.Disconnected -> lost None
  in
  match Serve.Client.stream_until_done client ~cid ~on_record with
  | exception Serve.Client.Disconnected -> lost (Some cid)
  | s ->
    Option.iter (fun s -> s.Obs.Stream.close ()) sink;
    Serve.Client.close client;
    finish_campaign ~what:("\rcampaign " ^ cid) ~jobs:s.Serve.Client.s_jobs
      ~ok:s.Serve.Client.s_ok ~failed:s.Serve.Client.s_failed ()

(* -------- single runs -------- *)

(* The observers only a single cycle run has, attached by [before_run]
   after the job's own probes. *)
type observers = {
  m : Xmtsim.Machine.t;
  cpi : Xmtsim.Profile.t option;  (** the job's profiler *)
  hot : Xmtsim.Plugin.filter option;
  spans : (Obs.Tracer.t * Xmtsim.Trace.spans) option;
  gov : Xmtsim.Governor.t option;
  profiler : Xmtsim.Plugin.profiler option;
  power : Xmtsim.Sampler.t option;
}

let run_single o mode =
  let export = export o in
  let input =
    match o.input with
    | Some i -> i
    | None -> fail "need an input FILE.{c,s} (or --campaign FILE.json)"
  in
  List.iter
    (fun (flag, v) -> if v < 0 then fail "%s must not be negative, got %d" flag v)
    [ ("--profile-interval", o.profile_interval); ("--power-interval", o.power_interval) ];
  (match o.max_cycles with
  | Some v when v < 1 -> fail "--max-cycles must be >= 1, got %d" v
  | _ -> ());
  (match o.checkpoint_at with
  | Some v when v < 0 -> fail "--checkpoint-at must be >= 0, got %d" v
  | _ -> ());
  if o.floorplan && o.power_interval = 0 then fail "--floorplan needs --power-interval";
  if o.checkpoint_at <> None && o.checkpoint_out = None then
    fail "--checkpoint-at needs --checkpoint-out";
  let positive flag default v =
    let v = Option.value ~default v in
    if v <= 0 then fail "%s must be positive, got %d" flag v;
    v
  in
  let heartbeat_cycles = positive "--heartbeat-cycles" 10_000 o.heartbeat_cycles in
  let governor_interval = positive "--governor-interval" 2000 o.governor_interval in
  let trace_limit = Option.value ~default:200 o.trace_limit in
  let asm = Filename.check_suffix input ".s" || Filename.check_suffix input ".asm" in
  let racecheck = o.racecheck || export "races" <> None in
  if racecheck && asm && mode <> T.Cycle then begin
    Printf.eprintf
      "xmtsim: --racecheck on assembly input needs the cycle-accurate mode \
       (the static layer analyzes XMTC source)\n";
    exit 2
  end;
  (* every input error below, from the preset to a checkpoint file, lands
     here: exit 1 with one line *)
  try
    let config =
      match T.preset (Option.value ~default:"fpga64" o.preset) with
      | Ok c -> Xmtsim.Config.with_overrides c o.overrides
      | Error msg -> fail "%s" msg
    in
    let memmap = Option.fold ~none:[] ~some:Isa.Memmap.parse_file o.memmap in
    let source = read_file input in
    (* the compiler output feeds the static race layer, which assembly
       inputs don't have *)
    let cc, image =
      if asm then (None, Isa.Program.resolve ~extra_data:memmap (Isa.Asm.parse source))
      else
        let c = T.compile ~memmap source in
        (Some c.T.cc, c.T.image)
    in
    let job =
      T.job ~memmap ~config ~mode ?max_cycles:o.max_cycles ~racecheck
        ~profile:(o.profile || export "profile" <> None)
        ?calibration:o.calibration source
    in
    let stream = Option.map Obs.Stream.create (stream_sink o) in
    (* host time covers the simulation only *)
    let host_t0 = ref (Obs.Clock.now ()) in
    let observers = ref None in
    let before_run m cpi =
      if o.no_clock_gating then Xmtsim.Machine.set_gating m false;
      Option.iter
        (fun p -> Xmtsim.Machine.restore m (Xmtsim.Machine.snapshot_of_file p))
        o.checkpoint_in;
      if o.trace then
        Xmtsim.Trace.attach
          ~filter:{ Xmtsim.Trace.all with Xmtsim.Trace.limit = trace_limit }
          m print_string;
      if o.trace_packages then Xmtsim.Trace.attach_packages ~limit:trace_limit m print_string;
      let hot = if o.hot then Some (Xmtsim.Plugin.hot_locations ~top:10 ()) else None in
      Option.iter
        (fun f -> ignore (Xmtsim.Machine.attach m f.Xmtsim.Plugin.probe : unit -> unit))
        hot;
      let tracer = Option.map (fun _ -> Obs.Tracer.create ()) (export "trace") in
      let spans = Option.map (fun tr -> (tr, Xmtsim.Trace.attach_spans m tr)) tracer in
      let gov =
        if o.governor then
          Some (Xmtsim.Governor.attach ?stream ?tracer ~interval:governor_interval m)
        else None
      in
      let profiler =
        if o.profile_interval > 0 then
          Some (Xmtsim.Plugin.attach_profiler ?profile:cpi ~interval:o.profile_interval m)
        else if tracer <> None then
          (* the trace gets activity counter tracks even without an
             explicit profile interval *)
          Some (Xmtsim.Plugin.attach_profiler ?profile:cpi ~interval:1000 m)
        else None
      in
      let power =
        if o.power_interval > 0 then
          Some
            (Xmtsim.Sampler.attach ?stream ~name:"power" ~interval:o.power_interval m
               (fun s cycle ->
                 Printf.printf "[cycle %8d] power %.2f W, Tmax %.2f K\n" cycle
                   (Xmtsim.Sampler.watts s) (Xmtsim.Sampler.temperature s);
                 []))
        else None
      in
      observers := Some { m; cpi; hot; spans; gov; profiler; power };
      host_t0 := Obs.Clock.now ();
      (* §III-E: save the simulation state at a point given ahead of
         time, then keep going; the run can be resumed later from the file *)
      Option.iter
        (fun cycle ->
          let path = Option.get o.checkpoint_out in
          ignore (Xmtsim.Machine.run ~max_cycles:cycle m);
          Xmtsim.Machine.run_to_quiescent m;
          Xmtsim.Machine.snapshot_to_file (Xmtsim.Machine.checkpoint m) path;
          Printf.printf "checkpoint at cycle %d written to %s\n" (Xmtsim.Machine.cycles m) path)
        o.checkpoint_at
    in
    let reuse = ref None in
    let r, halted =
      match
        T.run_image ?stream ~heartbeat_cycles ~before_run
          ~on_reuse:(fun s -> reuse := Some s)
          ?cc job image
      with
      | r -> (r, true)
      | exception T.Budget_exhausted r -> (r, false)
    in
    let host_secs = Obs.Clock.elapsed_since !host_t0 in
    let jint j k = match J.member k j with Some (J.Int n) -> n | _ -> 0 in
    print_string r.T.output;
    if r.T.output <> "" then print_newline ();
    if not halted then prerr_endline "xmtsim: cycle budget exhausted before halt";
    let obs = !observers in
    (match (obs, o.checkpoint_out, o.checkpoint_at) with
    | Some ob, Some p, None ->
      Xmtsim.Machine.snapshot_to_file (Xmtsim.Machine.checkpoint ob.m) p;
      Printf.printf "checkpoint written to %s\n" p
    | _ -> ());
    (if o.stats then
       match (mode, r.T.predict) with
       | T.Cycle, _ ->
         Printf.printf "---- %s ----\n" config.Xmtsim.Config.name;
         print_string (Xmtsim.Stats.to_string r.T.stats)
       | T.Functional, _ -> Printf.printf "[functional] instructions: %d\n" r.T.instructions
       | T.Predict, p ->
         let p = Option.value ~default:J.Null p in
         Printf.printf
           "[predict] instructions: %d, predicted cycles: %d (band %d..%d, config %s)\n"
           r.T.instructions r.T.cycles (jint p "lo") (jint p "hi")
           config.Xmtsim.Config.name);
    (match obs with
    | Some { profiler = Some p; _ } when o.profile_interval > 0 ->
      print_endline "---- execution profile ----";
      print_string (Xmtsim.Plugin.render_profile p)
    | _ -> ());
    (* the CPI stacks are reported only when asked for — the profiler may
       also run for --export profile or the interval profiler *)
    (match obs with
    | Some { cpi = Some p; _ } when o.profile ->
      let rp = Xmtsim.Profile.report p in
      print_string
        ("---- CPI stacks ----\n" ^ Xmtsim.Profile.render rp ^ Xmtsim.Profile.render_flame rp)
    | _ -> ());
    let write kind j =
      Option.iter (fun path -> Option.iter (J.write_path ~pretty:true path) (j ())) (export kind)
    in
    write "profile" (fun () -> r.T.profile);
    write "predict" (fun () -> r.T.predict);
    write "reuseprofile" (fun () -> Option.map Xmtsim.Reuseprofile.to_json !reuse);
    (* -------- telemetry sinks (--export stats/trace) -------- *)
    let events_per_sec = if host_secs > 0.0 then float_of_int r.T.events /. host_secs else 0.0 in
    let samples =
      match obs with
      | Some { profiler = Some p; _ } -> Xmtsim.Plugin.samples_in_order p
      | _ -> []
    in
    write "stats" (fun () ->
        Some
         (let reg = Obs.Metrics.create () in
          match obs with
          | None ->
            (* the serializing modes have no cycle-level stats: the
               envelope carries what they measure *)
            Obs.Metrics.inc ~by:r.T.instructions
              (Obs.Metrics.counter reg ~help:"instructions executed"
                 ~labels:[ ("mode", T.mode_name mode) ]
                 "sim.instructions");
            if mode = T.Predict then
              Obs.Metrics.set
                (Obs.Metrics.gauge reg ~help:"analytically predicted cycles" "predict.cycles")
                (float_of_int r.T.cycles);
            Obs.Metrics.set
              (Obs.Metrics.gauge reg ~help:"host wall-clock seconds" "host.wall_seconds")
              host_secs;
            Obs.Metrics.to_json reg
          | Some ob -> (
            Xmtsim.Stats.export r.T.stats reg;
            (* per-domain clock activity (ticks fired / ticks gated away) *)
            Xmtsim.Machine.export_clocks ob.m reg;
            (* host-side throughput *)
            Obs.Metrics.set (Obs.Metrics.gauge reg "host.wall_seconds") host_secs;
            Obs.Metrics.inc ~by:r.T.events (Obs.Metrics.counter reg "host.events_processed");
            Obs.Metrics.set (Obs.Metrics.gauge reg "host.events_per_sec") events_per_sec;
            Option.iter
              (fun s ->
                Obs.Metrics.inc ~by:(Obs.Stream.emitted s)
                  (Obs.Metrics.counter reg ~help:"telemetry records emitted"
                     "host.stream.emitted"))
              stream;
            Obs.Metrics.set
              (Obs.Metrics.gauge reg "host.sim_cycles_per_sec")
              (if host_secs > 0.0 then float_of_int r.T.cycles /. host_secs else 0.0);
            (* spatial distributions *)
            let act =
              Obs.Metrics.histogram reg
                ~buckets:[ 0.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. ]
                "sim.cluster.instructions"
            in
            Array.iter
              (fun n -> Obs.Metrics.observe act (float_of_int n))
              (Xmtsim.Machine.cluster_activity ob.m);
            Option.iter (fun s -> Xmtsim.Sampler.export s reg) ob.power;
            Option.iter (fun g -> Xmtsim.Governor.export g reg) ob.gov;
            (* the governor's decision log rides along as an extra
               top-level section of the metrics envelope *)
            match (Obs.Metrics.to_json reg, ob.gov) with
            | J.Obj fields, Some g -> J.Obj (fields @ [ ("governor", Xmtsim.Governor.to_json g) ])
            | j, _ -> j)));
    (match (export "trace", obs) with
    | Some path, Some { spans = Some (tr, sp); _ } ->
      Xmtsim.Trace.flush_spans sp;
      (* profile samples become a counter track *)
      List.iter
        (fun s ->
          Obs.Tracer.counter tr ~ts:s.Xmtsim.Plugin.ps_cycle "activity"
            [ ("compute", float_of_int s.Xmtsim.Plugin.ps_compute);
              ("memory", float_of_int s.Xmtsim.Plugin.ps_memory);
              ("memwait", float_of_int s.Xmtsim.Plugin.ps_memwait) ])
        samples;
      (* host wall-clock on its own process track *)
      Obs.Tracer.name_process tr ~pid:2 "host (ts = microseconds)";
      Obs.Tracer.name_thread tr ~pid:2 ~tid:1 "xmtsim_cli";
      Obs.Tracer.complete tr ~pid:2 ~tid:1 ~ts:0
        ~dur:(int_of_float (host_secs *. 1e6))
        ~cat:"host"
        ~args:
          [ ("events_processed", Obs.Tracer.A_int r.T.events);
            ("events_per_sec", Obs.Tracer.A_float events_per_sec);
            ("sim_cycles", Obs.Tracer.A_int r.T.cycles) ]
        "simulation-run";
      J.write_path path (Obs.Tracer.to_json tr)
    | _ -> ());
    Option.iter
      (fun races ->
        let static = match J.member "static" races with Some (J.List l) -> l | _ -> [] in
        List.iter
          (fun f ->
            Printf.eprintf "%s: %s\n" input
              (Racecheck.Diag.render (Racecheck.Diag.of_json f)))
          static;
        (match J.member "dynamic" races with
        | Some (J.Obj _ as d) ->
          Printf.eprintf
            "racecheck: %d static finding(s), %d dynamic race(s) (%d shadow \
             event(s) over %d spawn epoch(s))\n"
            (List.length static)
            (match J.member "races" d with Some (J.List l) -> List.length l | _ -> 0)
            (jint d "events") (jint d "epochs")
        | _ ->
          Printf.eprintf
            "racecheck: %d static finding(s); dynamic detection needs the \
             cycle-accurate mode (drop %s)\n"
            (List.length static) (mode_flag mode));
        write "races" (fun () -> Some races))
      r.T.races;
    (* the samplers' trailing rollup windows, before the stream closes *)
    Option.iter
      (fun ob ->
        Option.iter Xmtsim.Sampler.close_window ob.power;
        Option.iter (fun g -> Xmtsim.Sampler.close_window (Xmtsim.Governor.sampler g)) ob.gov)
      obs;
    Option.iter Obs.Stream.close stream;
    match obs with
    | None -> ()
    | Some ob -> (
      Option.iter
        (fun f ->
          Printf.printf "---- plugin %s ----\n%s\n" f.Xmtsim.Plugin.probe.Xmtsim.Probe.name
            (f.Xmtsim.Plugin.report ()))
        ob.hot;
      match (o.floorplan, ob.power) with
      | true, Some s ->
        let temps = Xmtsim.Thermal.temperatures (Xmtsim.Sampler.thermal s) in
        let nclusters = config.Xmtsim.Config.num_clusters in
        print_string
          (Xmtsim.Floorplan.render ~title:"final temperature floorplan"
             ~grid_w:(max 1 (int_of_float (sqrt (float_of_int nclusters))))
             (Array.sub temps 0 nclusters))
      | _ -> ())
  with
  | Compiler.Driver.Compile_error msg ->
    prerr_endline ("xmtcc: " ^ msg);
    exit 1
  | Isa.Asm.Parse_error { line; msg } -> fail "%s:%d: %s" input line msg
  | Isa.Memmap.Parse_error { line; msg } ->
    fail "%s:%d: %s" (Option.get o.memmap) line msg
  | Isa.Program.Resolve_error msg -> fail "%s: %s" input msg
  | Xmtsim.Machine.Bad_snapshot msg -> fail "--checkpoint-in: %s" msg
  | Predict.Calibrate.Calib_error msg ->
    fail "--calibration %s: %s" (Option.get o.calibration) msg
  | Xmtsim.Funcmodel.Runtime_error { pc; msg } -> fail "runtime error at pc %d: %s" pc msg
  | Xmtsim.Config.Bad_config msg | Xmtsim.Machine.Sim_error msg
  | Xmtsim.Functional_mode.Exec_error msg | Sys_error msg ->
    fail "%s" msg

(* -------- the command line -------- *)

let run o =
  let front = front_of o in
  check front o;
  match front with
  | Single mode -> run_single o mode
  | Campaign -> run_campaign o (Option.get o.campaign)
  | Submit | Attach -> run_served o (Option.get o.connect)

let removed_timeseries =
  "windowed telemetry is on --stream SINK (window.close records)"

let export_conv =
  let parse s =
    let kind, path =
      match String.index_opt s '=' with
      | Some i ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 1)) )
      | None -> (s, None)
    in
    (* the valid kinds come from the schema registry, so this listing
       cannot drift from the records the toolchain actually emits *)
    if Obs.Schema.is_export_kind kind then
      Ok (kind, Option.value ~default:(kind ^ ".json") path)
    else if kind = "timeseries" then
      Error (`Msg ("kind \"timeseries\" was removed; " ^ removed_timeseries))
    else
      Error
        (`Msg
          (Printf.sprintf "unknown export kind %S (%s)" kind
             Obs.Schema.export_kinds_doc))
  in
  let print ppf (k, p) = Format.fprintf ppf "%s=%s" k p in
  Arg.conv (parse, print)

let opts =
  let open Term.Syntax in
  let+ input = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.{c,s}")
  and+ preset = Arg.(value & opt (some string) None & info [ "c"; "config" ] ~docv:"PRESET"
      ~doc:"Configuration preset: tiny, fpga64 (default), chip1024.")
  and+ overrides = Arg.(value & opt_all string [] & info [ "set" ] ~docv:"KEY=VAL"
      ~doc:"Override a configuration parameter (repeatable).")
  and+ functional = Arg.(value & flag & info [ "functional" ]
      ~doc:"Fast functional (serializing) mode (same as --mode functional).")
  and+ mode = Arg.(value & opt (some string) None & info [ "mode" ] ~docv:"MODE"
      ~doc:"Execution mode: cycle (the cycle-accurate simulator, default), functional (fast \
        serializing interpreter), or predict (one functional pass harvests a reuse profile \
        and the analytical model predicts the cycle count — add --export predict/reuseprofile \
        for the reports).")
  and+ calibration = Arg.(value & opt (some file) None & info [ "calibration" ] ~docv:"FILE"
      ~doc:"xmt.calibration.v1 artifact with fitted model coefficients for --mode predict \
        (default: the built-in fit).")
  and+ memmap = Arg.(value & opt (some file) None & info [ "memmap" ] ~docv:"FILE"
      ~doc:"Memory-map file with initial values of globals.")
  and+ max_cycles = Arg.(value & opt (some int) None & info [ "max-cycles" ] ~docv:"N"
      ~doc:"Stop the cycle-accurate run after N cycles if the program has not halted \
        (default: the configuration's max_cycles, 10^9); the partial run is reported \
        with a warning on stderr.")
  and+ stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print simulation statistics.")
  and+ trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print an execution trace.")
  and+ trace_packages = Arg.(value & flag & info [ "trace-packages" ]
      ~doc:"Print the cycle-accurate package trace (per station).")
  and+ trace_limit = Arg.(value & opt (some int) None & info [ "trace-limit" ] ~docv:"N"
      ~doc:"Lines per text trace (default 200; 0 = unlimited).")
  and+ hot = Arg.(value & flag & info [ "hot" ]
      ~doc:"Enable the hot-memory-locations filter plug-in.")
  and+ profile_interval = Arg.(value & opt int 0 & info [ "profile-interval" ] ~docv:"CYCLES"
      ~doc:"Sample an execution profile every N cycles (0 = off).")
  and+ power_interval = Arg.(value & opt int 0 & info [ "power-interval" ] ~docv:"CYCLES"
      ~doc:"Sample power/temperature every N cycles (0 = off); with --stream the samples also \
        roll up into window.close records.")
  and+ floorplan = Arg.(value & flag & info [ "floorplan" ]
      ~doc:"Render the final temperature floorplan (with --power-interval).")
  and+ checkpoint_out = Arg.(value & opt (some string) None & info [ "checkpoint-out" ] ~docv:"FILE"
      ~doc:"Write a checkpoint (after the run, or at --checkpoint-at).")
  and+ checkpoint_at = Arg.(value & opt (some int) None & info [ "checkpoint-at" ] ~docv:"CYCLE"
      ~doc:"Take the checkpoint at (the first quiescent point after) this cycle, then \
        continue running.")
  and+ checkpoint_in = Arg.(value & opt (some file) None & info [ "checkpoint-in" ] ~docv:"FILE"
      ~doc:"Restore a checkpoint before the run.")
  and+ governor = Arg.(value & flag & info [ "governor" ]
      ~doc:"Enable the telemetry-driven DVFS governor: thresholds on windowed ICN backlog and \
        modeled temperature throttle/restore the cluster and ICN clock domains; decisions \
        appear in --export stats (governor section) and --export trace; --stream adds its \
        windowed temperature, power and ICN backlog.")
  and+ governor_interval = Arg.(value & opt (some int) None & info [ "governor-interval" ]
      ~docv:"CYCLES" ~doc:"Governor sampling interval in cluster cycles (default 2000).")
  and+ no_clock_gating = Arg.(value & flag & info [ "no-clock-gating" ]
      ~doc:"Keep every clock domain ticking even when idle.  Gating never changes simulated \
        results — cycle counts, output and stats are bit-identical either way — this flag \
        only exists to measure the host-side event-count reduction (compare \
        host.events_processed in --export stats).")
  and+ racecheck = Arg.(value & flag & info [ "racecheck" ]
      ~doc:"Attach the race & memory-model checker: the static spawn-block analysis (XMTC \
        inputs) plus the dynamic shadow-memory race detector (cycle-accurate mode).  Findings \
        go to stderr; add --export races=FILE for the xmt.races.v1 JSON report.")
  and+ profile = Arg.(value & flag & info [ "profile" ]
      ~doc:"Attach the cycle-accounting profiler and print per-TCU CPI stacks: every TCU \
        cycle attributed to one bucket (compute, spawn/join, ICN, cache hit, DRAM, \
        prefetch-covered, fence/ps), idle by subtraction, so the stack sums exactly to the \
        run's TCU-cycles.  XMTC inputs (and assembly from $(b,xmtcc -g)) also get \
        per-source-line hot-spot tables and a flame-style view.  The profiler is passive: \
        cycles, stats and traces are bit-identical with or without it.  Add --export \
        profile=FILE for the xmt.profile.v1 JSON report.")
  and+ exports = Arg.(value & opt_all export_conv [] & info [ "export" ] ~docv:"KIND[=PATH]"
      ~doc:("Write a JSON export (repeatable).  KIND is one of: "
           ^ String.concat "; "
               (List.filter_map
                  (fun e ->
                    Option.map (fun k -> k ^ " — " ^ e.Obs.Schema.e_doc) e.Obs.Schema.e_kind)
                  Obs.Schema.table)
           ^ ".  PATH defaults to KIND.json; use - for stdout."))
  and+ campaign = Arg.(value & opt (some file) None & info [ "campaign" ] ~docv:"FILE.json"
      ~doc:"Run an xmt.campaign.v1 campaign: independent compile+simulate jobs fanned out \
        over --jobs worker domains with per-job fault isolation and deterministic result \
        ordering.  Writes the campaign report (see --export campaign) and exits nonzero if \
        any job failed.")
  and+ jobs = Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
      ~doc:"Worker domains for --campaign (1 = serial; clamped to the job count; \
        each worker takes the next job as it finishes one, compiles shared across jobs with \
        the same source and compiler options; results are byte-identical for any value).  Overrides the spec file's exec.jobs; \
        default 1.")
  and+ retries = Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N"
      ~doc:"Per-job retry budget for --campaign.  Overrides the spec file's exec.retries; \
        default 0.")
  and+ stream = Arg.(value & opt (some string) None & info [ "stream" ] ~docv:"SINK"
      ~doc:"Stream live xmt.events.v1 telemetry as NDJSON to SINK (a path, - for stdout, or \
        fd:N for an inherited file descriptor).  Single runs emit run.start, periodic \
        sim.heartbeat records (see --heartbeat-cycles), window.close rollups and a run.done \
        summary (cycle-accurate mode only); --campaign, in-process or with --connect, streams \
        job lifecycle and campaign.progress records instead.  Each record is written when it \
        is emitted, so a SINK that blocks holds up the run.")
  and+ heartbeat_cycles = Arg.(value & opt (some int) None & info [ "heartbeat-cycles" ] ~docv:"N"
      ~doc:"Cluster-clock grid cycles between sim.heartbeat records on --stream (default \
        10000); a heartbeat due while the cluster clock is gated comes on its next tick.")
  and+ connect = Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"SOCKET"
      ~doc:"Run the campaign through an $(b,xmtserved) daemon listening on this Unix socket \
        instead of in-process: --campaign FILE.json submits the spec and streams the live \
        per-job results back (add --stream SINK to keep the NDJSON); --attach CID rejoins a \
        running or completed campaign.  If the connection drops the campaign keeps running \
        server-side and xmtsim exits 3 with the reconnect command.")
  and+ attach = Arg.(value & opt (some string) None & info [ "attach" ] ~docv:"CID"
      ~doc:"With --connect: re-subscribe to campaign CID and stream its records (the server \
        replays anything missed).")
  and+ after = Arg.(value & opt (some string) None & info [ "after" ] ~docv:"JOB:JSEQ"
      ~doc:"With --attach: acknowledge the last record already received; the server \
        re-streams strictly after it.")
  in
  { input; preset; overrides; functional; mode; calibration; memmap; max_cycles; stats;
    trace; trace_packages; trace_limit; hot; profile_interval; power_interval; floorplan;
    checkpoint_out; checkpoint_at; checkpoint_in; governor; governor_interval;
    no_clock_gating; racecheck; profile; exports; campaign; jobs; retries; stream;
    heartbeat_cycles; connect; attach; after }

let cmd =
  let doc = "simulate an XMT program (cycle-accurate or functional)" in
  Cmd.v (Cmd.info "xmtsim" ~doc) Term.(const run $ opts)

(* the deprecated one-flag-per-sink aliases were removed in favor of
   --export (and the timeseries in favor of --stream); fail fast with the
   replacement before cmdliner's generic unknown-option error *)
let removed_flags =
  [
    ("--stats-json", "use --export stats[=PATH]");
    ("--trace-json", "use --export trace[=PATH]");
    ("--timeseries-json", removed_timeseries);
  ]

let () =
  Array.iter
    (fun arg ->
      let flag =
        match String.index_opt arg '=' with
        | Some i -> String.sub arg 0 i
        | None -> arg
      in
      match List.assoc_opt flag removed_flags with
      | Some hint ->
        Printf.eprintf "xmtsim: unknown option %s (removed); %s\n" flag hint;
        exit 124
      | None -> ())
    Sys.argv;
  exit (Cmd.eval cmd)
