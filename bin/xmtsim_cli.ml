(** xmtsim — the cycle-accurate XMT simulator driver (paper §III).

    Runs an XMT assembly program (or compiles an XMTC source on the fly)
    in the cycle-accurate or fast functional mode, with the configuration,
    statistics, trace, plug-in, power/thermal and checkpoint features of
    the paper. *)

open Cmdliner

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* -------- campaign mode (--campaign FILE.json --jobs N) -------- *)

let run_campaign_cmd ~file ~jobs ~retries ~export ~stream_sink =
  List.iter
    (fun kind ->
      if export kind <> None then begin
        Printf.eprintf
          "xmtsim: --export %s applies to single runs; the campaign report \
           carries per-job stats instead\n"
          kind;
        exit 1
      end)
    [ "stats"; "trace"; "timeseries"; "races"; "predict"; "reuseprofile" ];
  (* the spec file carries the request (including an optional "exec"
     block with default jobs/retries); command-line flags override it *)
  let req =
    try
      let req = Campaign.Request.load_file file in
      let req =
        match jobs with
        | Some n -> Campaign.Request.with_jobs req (Some n)
        | None -> req
      in
      let req =
        match retries with
        | Some r -> Campaign.Request.with_retries req r
        | None -> req
      in
      (* --export profile at campaign level profiles every cycle-mode job
         and writes the merged CPI stack *)
      if export "profile" = None then req
      else
        Campaign.Request.with_specs req
          (List.map
             (fun (name, j) -> (name, { j with Core.Toolchain.profile = true }))
             req.Campaign.Request.specs)
    with
    | Campaign.Spec_error msg | Xmtsim.Config.Bad_config msg ->
      Printf.eprintf "xmtsim: campaign %s: %s\n" file msg;
      exit 1
  in
  let total = List.length req.Campaign.Request.specs in
  let reg = Obs.Metrics.create () in
  let stream =
    Option.map
      (fun sink -> Obs.Stream.create (Obs.Stream.sink_of_path sink))
      stream_sink
  in
  (* one warm pool for the whole campaign; jobs sharing a compile key
     (a config sweep over one source) compile once via the shared
     artifact cache *)
  let effective_workers =
    max 1 (min (Option.value ~default:1 req.Campaign.Request.jobs) total)
  in
  let results =
    Campaign.Pool.with_pool ~workers:effective_workers (fun pool ->
        Campaign.run_request ~pool
          ~artifacts:(Core.Toolchain.Artifacts.create ())
          ~metrics:reg ?stream
          ~on_event:(Campaign.progress_printer ~total)
          req)
  in
  (match stream with
  | Some s ->
    let dropped = Obs.Stream.dropped s in
    Obs.Stream.close s;
    if dropped > 0 then
      Printf.eprintf "xmtsim: stream: %d record(s) dropped (queue full)\n"
        dropped
  | None -> ());
  let report_path = Option.value ~default:"campaign.json" (export "campaign") in
  Obs.Json.write_path ~pretty:true report_path
    (Campaign.report_to_json ~workers:effective_workers results);
  (match export "campaign-det" with
  | Some p ->
    Obs.Json.write_path ~pretty:true p
      (Campaign.report_to_json ~host:false results)
  | None -> ());
  (match export "profile" with
  | Some p -> (
    match Campaign.merged_profile_json results with
    | Some j -> Obs.Json.write_path ~pretty:true p j
    | None ->
      Printf.eprintf
        "xmtsim: no job produced a profile (cycle-mode jobs only)\n")
  | None -> ());
  let ok = Campaign.ok_count results and failed = Campaign.failed_count results in
  let wall =
    Option.value ~default:0.0 (Obs.Metrics.gauge_value reg "campaign.wall_seconds")
  in
  (* the human summary goes to stderr so stdout stays pure JSON when a
     report is exported to "-" *)
  Printf.eprintf "campaign: %d jobs, %d ok, %d failed, %.2fs wall (%d worker%s)\n"
    total ok failed wall effective_workers
    (if effective_workers = 1 then "" else "s");
  if report_path <> "-" then Printf.eprintf "report written to %s\n" report_path;
  exit (if failed > 0 then 1 else 0)

(* -------- served mode (--connect SOCKET) -------- *)

(* "JOB:JSEQ", the key printed in the reconnect hint *)
let parse_after s =
  match String.index_opt s ':' with
  | Some i -> (
    try
      Some
        ( int_of_string (String.sub s 0 i),
          int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
    with Failure _ -> None)
  | None -> None

let run_connect_cmd ~sock ~campaign_file ~attach_cid ~after ~stream_sink =
  let module J = Obs.Json in
  (match (campaign_file, attach_cid) with
  | None, None ->
    Printf.eprintf
      "xmtsim: --connect needs --campaign FILE.json (submit) or --attach CID \
       (rejoin)\n";
    exit 1
  | Some _, Some _ ->
    Printf.eprintf "xmtsim: --campaign and --attach are mutually exclusive\n";
    exit 1
  | _ -> ());
  let after =
    Option.map
      (fun s ->
        match parse_after s with
        | Some p -> p
        | None ->
          Printf.eprintf "xmtsim: --after wants JOB:JSEQ (two integers)\n";
          exit 1)
      after
  in
  let sink = Option.map Obs.Stream.sink_of_path stream_sink in
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
    Printf.eprintf
      "xmtsim: connection to %s lost; the campaign keeps running server-side\n"
      sock;
    (match cid with
    | Some cid ->
      let hint =
        match !last with
        | Some (j, s) -> Printf.sprintf " --after %d:%d" j s
        | None -> ""
      in
      Printf.eprintf "  resume with: xmtsim --connect %s --attach %s%s\n" sock
        cid hint
    | None -> ());
    exit 3
  in
  let on_record r =
    (match r with
    | J.Obj kvs -> (
      match (List.assoc_opt "job" kvs, List.assoc_opt "jseq" kvs) with
      | Some (J.Int j), Some (J.Int s) -> last := Some (j, s)
      | _ -> ())
    | _ -> ());
    (match sink with
    | Some s -> s.Obs.Stream.write (J.to_string r)
    | None -> ());
    match r with
    | J.Obj kvs when List.assoc_opt "type" kvs = Some (J.Str "campaign.progress")
      ->
      let geti k =
        match List.assoc_opt k kvs with Some (J.Int n) -> n | _ -> 0
      in
      Printf.eprintf "\r[%d/%d] ok %d, failed %d%!" (geti "completed")
        (geti "total") (geti "ok") (geti "failed")
    | _ -> ()
  in
  let cid =
    try
      match campaign_file with
      | Some file ->
        let spec =
          match J.of_string (read_file file) with
          | j -> j
          | exception J.Parse_error msg ->
            Printf.eprintf "xmtsim: campaign %s: %s\n" file msg;
            exit 1
        in
        (match Serve.Client.submit client spec with
        | Ok cid ->
          Printf.eprintf "campaign %s accepted by %s\n%!" cid sock;
          cid
        | Error frame ->
          Printf.eprintf "xmtsim: server rejected the campaign: %s\n"
            (J.to_string frame);
          exit 1)
      | None -> (
        let cid = Option.get attach_cid in
        match Serve.Client.attach client ~cid ?after () with
        | Ok () -> cid
        | Error frame ->
          Printf.eprintf "xmtsim: attach %s failed: %s\n" cid
            (J.to_string frame);
          exit 1)
    with Serve.Client.Disconnected -> lost None
  in
  match Serve.Client.stream_until_done client ~cid ~on_record with
  | exception Serve.Client.Disconnected -> lost (Some cid)
  | s ->
    Option.iter (fun s -> s.Obs.Stream.close ()) sink;
    Serve.Client.close client;
    Printf.eprintf "\rcampaign %s: %d jobs, %d ok, %d failed\n" cid
      s.Serve.Client.s_jobs s.Serve.Client.s_ok s.Serve.Client.s_failed;
    exit (if s.Serve.Client.s_failed > 0 then 1 else 0)

let run_cmd input preset overrides functional mode_opt calibration memmap_file
    max_cycles stats trace trace_packages trace_limit hot profile_interval
    power_interval floorplan checkpoint_out checkpoint_at checkpoint_in governor
    governor_interval no_clock_gating racecheck cpi_profile exports
    campaign_file jobs retries stream_sink heartbeat_cycles connect attach_cid
    after =
  (* resolve the export sinks: --export KIND[=PATH], last writer wins *)
  let export kind =
    List.fold_left (fun acc (k, p) -> if k = kind then Some p else acc) None
      exports
  in
  (match (connect, attach_cid, after) with
  | Some sock, _, _ ->
    run_connect_cmd ~sock ~campaign_file ~attach_cid ~after ~stream_sink
  | None, Some _, _ | None, None, Some _ ->
    Printf.eprintf "xmtsim: --attach/--after need --connect SOCKET\n";
    exit 1
  | None, None, None -> ());
  (match campaign_file with
  | Some file -> run_campaign_cmd ~file ~jobs ~retries ~export ~stream_sink
  | None -> ());
  let input =
    match input with
    | Some i -> i
    | None ->
      Printf.eprintf "xmtsim: need an input FILE.{c,s} (or --campaign FILE.json)\n";
      exit 1
  in
  (* --functional is the historical spelling of --mode functional; the
     two agree or the invocation is ambiguous *)
  let mode =
    match (mode_opt, functional) with
    | None, false -> `Cycle
    | None, true | Some "functional", _ -> `Functional
    | Some "cycle", false -> `Cycle
    | Some "predict", false -> `Predict
    | Some (("cycle" | "predict") as m), true ->
      Printf.eprintf "xmtsim: --functional conflicts with --mode %s\n" m;
      exit 1
    | Some other, _ ->
      Printf.eprintf "xmtsim: --mode must be cycle|functional|predict, got %S\n"
        other;
      exit 1
  in
  if calibration <> None && mode <> `Predict then begin
    Printf.eprintf "xmtsim: --calibration needs --mode predict\n";
    exit 1
  end;
  let predict_json = export "predict" in
  let reuseprofile_json = export "reuseprofile" in
  (if mode <> `Predict then
     List.iter
       (fun kind ->
         if export kind <> None then begin
           Printf.eprintf "xmtsim: --export %s needs --mode predict\n" kind;
           exit 1
         end)
       [ "predict"; "reuseprofile" ]);
  let stats_json = export "stats" in
  let trace_json = export "trace" in
  let timeseries_json = export "timeseries" in
  let races_json = export "races" in
  let racecheck = racecheck || races_json <> None in
  let profile_json = export "profile" in
  let profile_requested = cpi_profile || profile_json <> None in
  List.iter
    (fun kind ->
      if export kind <> None then begin
        Printf.eprintf "xmtsim: --export %s needs --campaign\n" kind;
        exit 1
      end)
    [ "campaign"; "campaign-det" ];
  let config =
    match List.assoc_opt preset Xmtsim.Config.presets with
    | Some c -> (
      try Xmtsim.Config.with_overrides c overrides
      with Xmtsim.Config.Bad_config msg ->
        Printf.eprintf "xmtsim: %s\n" msg;
        exit 1)
    | None ->
      Printf.eprintf "xmtsim: unknown configuration preset %S (have: %s)\n" preset
        (String.concat ", " (List.map fst Xmtsim.Config.presets));
      exit 1
  in
  let memmap =
    match memmap_file with
    | None -> []
    | Some p -> Isa.Memmap.parse_file p
  in
  (* keep the driver output alongside the image: the static race layer
     analyzes the typed AST + final IR, which assembly inputs don't have *)
  let driver_out, image =
    if Filename.check_suffix input ".s" || Filename.check_suffix input ".asm"
    then (None, Isa.Program.resolve ~extra_data:memmap (Isa.Asm.parse_file input))
    else begin
      match Compiler.Driver.compile_to_image ~memmap (read_file input) with
      | exception Compiler.Driver.Compile_error msg ->
        Printf.eprintf "xmtcc: %s\n" msg;
        exit 1
      | out, img -> (Some out, img)
    end
  in
  let static_findings () =
    match driver_out with
    | Some out -> Racecheck.analyze out
    | None -> []
  in
  let print_findings findings =
    List.iter
      (fun f -> Printf.eprintf "%s: %s\n" input (Racecheck.Diag.render f))
      findings
  in
  (* cycle-level sinks have nothing to record in the serializing
     functional and predict modes: fail fast instead of writing an
     empty file *)
  let reject_cycle_sinks ~drop =
    let reject flag =
      Printf.eprintf
        "xmtsim: %s records simulated cycle-level activity; it needs the \
         cycle-accurate mode (drop %s)\n"
        flag drop;
      exit 2
    in
    if trace_json <> None then reject "--export trace";
    if timeseries_json <> None then reject "--export timeseries";
    if profile_json <> None then reject "--export profile";
    if cpi_profile then reject "--profile";
    if governor then reject "--governor";
    if stream_sink <> None then reject "--stream"
  in
  match mode with
  | `Functional -> begin
    reject_cycle_sinks ~drop:"--functional";
    let host_t0 = Unix.gettimeofday () in
    let r = Xmtsim.Functional_mode.run image in
    let host_secs = Unix.gettimeofday () -. host_t0 in
    print_string r.Xmtsim.Functional_mode.output;
    if String.length r.Xmtsim.Functional_mode.output > 0 then print_newline ();
    if stats then
      Printf.printf "[functional] instructions: %d\n"
        r.Xmtsim.Functional_mode.instructions;
    (match stats_json with
    | None -> ()
    | Some path ->
      (* functional mode has no cycle-level stats; emit the envelope with
         what it does measure so downstream tooling sees a valid record *)
      let reg = Obs.Metrics.create () in
      Obs.Metrics.inc
        ~by:r.Xmtsim.Functional_mode.instructions
        (Obs.Metrics.counter reg ~help:"instructions executed"
           ~labels:[ ("mode", "functional") ]
           "sim.instructions");
      Obs.Metrics.set
        (Obs.Metrics.gauge reg ~help:"host wall-clock seconds" "host.wall_seconds")
        host_secs;
      Obs.Json.write_path ~pretty:true path (Obs.Metrics.to_json reg));
    if racecheck then begin
      (* the shadow-memory layer needs the cycle-accurate machine; the
         functional mode still gets the static analysis when the input
         was XMTC source *)
      match driver_out with
      | None ->
        Printf.eprintf
          "xmtsim: --racecheck on assembly input needs the cycle-accurate \
           mode (the static layer analyzes XMTC source)\n";
        exit 2
      | Some _ ->
        let findings = static_findings () in
        print_findings findings;
        Printf.eprintf
          "racecheck: %d static finding(s); dynamic detection needs the \
           cycle-accurate mode (drop --functional)\n"
          (List.length findings);
        (match races_json with
        | Some path ->
          Obs.Json.write_path ~pretty:true path (Racecheck.report findings)
        | None -> ())
    end
  end
  | `Predict -> begin
    reject_cycle_sinks ~drop:"--mode predict";
    let cal =
      match calibration with
      | None -> Predict.Calibrate.default
      | Some file -> (
        try Predict.Calibrate.load_file file
        with Predict.Calibrate.Calib_error msg ->
          Printf.eprintf "xmtsim: --calibration %s: %s\n" file msg;
          exit 1)
    in
    let rp = Xmtsim.Reuseprofile.create () in
    let host_t0 = Unix.gettimeofday () in
    let r = Xmtsim.Functional_mode.run ~profile:rp image in
    let host_secs = Unix.gettimeofday () -. host_t0 in
    let snap = Xmtsim.Reuseprofile.snapshot rp in
    let pred =
      Predict.Model.predict ~coeffs:cal.Predict.Calibrate.coeffs
        ~residual_std_pct:cal.Predict.Calibrate.residual_std_pct ~config snap
    in
    print_string r.Xmtsim.Functional_mode.output;
    if String.length r.Xmtsim.Functional_mode.output > 0 then print_newline ();
    if stats then
      Printf.printf
        "[predict] instructions: %d, predicted cycles: %d (band %d..%d, \
         config %s)\n"
        r.Xmtsim.Functional_mode.instructions pred.Predict.Model.predicted_cycles
        pred.Predict.Model.lo pred.Predict.Model.hi config.Xmtsim.Config.name;
    (match predict_json with
    | Some path ->
      Obs.Json.write_path ~pretty:true path
        (Predict.Model.to_json
           ~calibration:(Predict.Calibrate.summary_json cal)
           ~config_name:config.Xmtsim.Config.name pred)
    | None -> ());
    (match reuseprofile_json with
    | Some path ->
      Obs.Json.write_path ~pretty:true path (Xmtsim.Reuseprofile.to_json snap)
    | None -> ());
    (match stats_json with
    | None -> ()
    | Some path ->
      (* like functional mode, the envelope carries what this mode
         measures: instructions executed plus the model's prediction *)
      let reg = Obs.Metrics.create () in
      Obs.Metrics.inc
        ~by:r.Xmtsim.Functional_mode.instructions
        (Obs.Metrics.counter reg ~help:"instructions executed"
           ~labels:[ ("mode", "predict") ]
           "sim.instructions");
      Obs.Metrics.set
        (Obs.Metrics.gauge reg ~help:"analytically predicted cycles"
           "predict.cycles")
        (float_of_int pred.Predict.Model.predicted_cycles);
      Obs.Metrics.set
        (Obs.Metrics.gauge reg ~help:"host wall-clock seconds" "host.wall_seconds")
        host_secs;
      Obs.Json.write_path ~pretty:true path (Obs.Metrics.to_json reg));
    if racecheck then begin
      match driver_out with
      | None ->
        Printf.eprintf
          "xmtsim: --racecheck on assembly input needs the cycle-accurate \
           mode (the static layer analyzes XMTC source)\n";
        exit 2
      | Some _ ->
        let findings = static_findings () in
        print_findings findings;
        Printf.eprintf
          "racecheck: %d static finding(s); dynamic detection needs the \
           cycle-accurate mode (drop --mode predict)\n"
          (List.length findings);
        (match races_json with
        | Some path ->
          Obs.Json.write_path ~pretty:true path (Racecheck.report findings)
        | None -> ())
    end
  end
  | `Cycle -> begin
    let m = Xmtsim.Machine.create ~config image in
    if no_clock_gating then Xmtsim.Machine.set_gating m false;
    let racedet = if racecheck then Some (Xmtsim.Racedetect.attach m) else None in
    let profile = if profile_requested then Some (Xmtsim.Profile.attach m) else None in
    let stream =
      match stream_sink with
      | None -> None
      | Some sink ->
        let s = Obs.Stream.create (Obs.Stream.sink_of_path sink) in
        ignore (Xmtsim.Heartbeat.attach ~heartbeat_cycles m s : unit -> unit);
        Some s
    in
    (match checkpoint_in with
    | Some p -> Xmtsim.Machine.restore m (Xmtsim.Machine.snapshot_of_file p)
    | None -> ());
    if trace then
      Xmtsim.Trace.attach
        ~filter:{ Xmtsim.Trace.all with Xmtsim.Trace.limit = trace_limit }
        m print_string;
    if trace_packages then
      Xmtsim.Trace.attach_packages ~limit:trace_limit m print_string;
    let hot_filter = if hot then Some (Xmtsim.Plugin.hot_locations ~top:10 ()) else None in
    Option.iter
      (fun f -> ignore (Xmtsim.Machine.attach m f.Xmtsim.Plugin.probe : unit -> unit))
      hot_filter;
    let tracer = Option.map (fun _ -> Obs.Tracer.create ()) trace_json in
    let spans = Option.map (Xmtsim.Trace.attach_spans m) tracer in
    let series =
      match timeseries_json with
      | None -> None
      | Some _ -> Some (Obs.Timeseries.create ~window:4096 ())
    in
    let gov =
      if governor then
        Some (Xmtsim.Governor.attach ?series ?tracer ~interval:governor_interval m)
      else None
    in
    let profiler =
      if profile_interval > 0 then
        Some (Xmtsim.Plugin.attach_profiler ?profile ~interval:profile_interval m)
      else if tracer <> None || series <> None then
        (* the trace and timeseries get activity counter tracks even
           without an explicit profile interval *)
        Some (Xmtsim.Plugin.attach_profiler ?profile ~interval:1000 m)
      else None
    in
    let power =
      if power_interval > 0 then begin
        let p = Xmtsim.Power.create m in
        let th =
          Xmtsim.Thermal.create
            ~grid_w:(int_of_float (sqrt (float_of_int config.Xmtsim.Config.num_clusters)))
            (Xmtsim.Power.component_names p)
        in
        Xmtsim.Machine.add_activity_plugin m ~name:"power" ~interval:power_interval
          (fun m cycle ->
            let watts = Xmtsim.Power.sample p in
            Xmtsim.Thermal.step th
              ~dt:(float_of_int power_interval /. 1e9)
              watts;
            Printf.printf "[cycle %8d] power %.2f W, Tmax %.2f K\n" cycle
              (Xmtsim.Power.total p)
              (Xmtsim.Thermal.max_temperature th);
            ignore m);
        Some (p, th)
      end
      else None
    in
    let host_t0 = Unix.gettimeofday () in
    (* §III-E: save the simulation state at a point given ahead of time,
       then keep going; the run can be resumed later from the file *)
    (match (checkpoint_at, checkpoint_out) with
    | Some cycle, Some path ->
      ignore (Xmtsim.Machine.run ~max_cycles:cycle m);
      Xmtsim.Machine.run_to_quiescent m;
      Xmtsim.Machine.snapshot_to_file (Xmtsim.Machine.checkpoint m) path;
      Printf.printf "checkpoint at cycle %d written to %s\n"
        (Xmtsim.Machine.cycles m) path
    | Some _, None ->
      Printf.eprintf "xmtsim: --checkpoint-at needs --checkpoint-out\n";
      exit 1
    | None, _ -> ());
    let r = Xmtsim.Machine.run ?max_cycles m in
    let host_secs = Unix.gettimeofday () -. host_t0 in
    print_string r.Xmtsim.Machine.output;
    if String.length r.Xmtsim.Machine.output > 0 then print_newline ();
    if not r.Xmtsim.Machine.halted then
      Printf.eprintf "xmtsim: cycle budget exhausted before halt\n";
    (match (checkpoint_out, checkpoint_at) with
    | Some p, None ->
      Xmtsim.Machine.snapshot_to_file (Xmtsim.Machine.checkpoint m) p;
      Printf.printf "checkpoint written to %s\n" p
    | _ -> ());
    if stats then begin
      Printf.printf "---- %s ----\n" config.Xmtsim.Config.name;
      print_string (Xmtsim.Stats.to_string (Xmtsim.Machine.stats m))
    end;
    (match profiler with
    | Some p when profile_interval > 0 ->
      print_endline "---- execution profile ----";
      print_string (Xmtsim.Plugin.render_profile p)
    | _ -> ());
    (* the CPI stacks are reported only when asked for — the profiler may
       also be attached as the interval profiler's event source *)
    (match profile with
    | Some p ->
      let rp = Xmtsim.Profile.report p in
      if cpi_profile then begin
        print_endline "---- CPI stacks ----";
        print_string (Xmtsim.Profile.render rp);
        print_string (Xmtsim.Profile.render_flame rp)
      end;
      (match profile_json with
      | Some path -> Obs.Json.write_path ~pretty:true path (Xmtsim.Profile.to_json rp)
      | None -> ())
    | None -> ());
    (* -------- telemetry sinks (--export stats / --export trace) -------- *)
    let events = Xmtsim.Machine.events_processed m in
    let events_per_sec =
      if host_secs > 0.0 then float_of_int events /. host_secs else 0.0
    in
    (match stats_json with
    | None -> ()
    | Some path ->
      let reg = Obs.Metrics.create () in
      Xmtsim.Stats.export (Xmtsim.Machine.stats m) reg;
      (* per-domain clock activity (ticks fired / ticks gated away) *)
      Xmtsim.Machine.export_clocks m reg;
      (* host-side throughput *)
      Obs.Metrics.set (Obs.Metrics.gauge reg "host.wall_seconds") host_secs;
      Obs.Metrics.inc ~by:events (Obs.Metrics.counter reg "host.events_processed");
      Obs.Metrics.set (Obs.Metrics.gauge reg "host.events_per_sec") events_per_sec;
      (* live-stream accounting, so a dropped-records overflow is visible
         in the exported stats and not only on stderr *)
      (match stream with
      | Some s ->
        Obs.Metrics.inc ~by:(Obs.Stream.emitted s)
          (Obs.Metrics.counter reg ~help:"telemetry records emitted"
             "host.stream.emitted");
        Obs.Metrics.inc ~by:(Obs.Stream.dropped s)
          (Obs.Metrics.counter reg ~help:"telemetry records dropped (queue full)"
             "host.stream.dropped")
      | None -> ());
      Obs.Metrics.set
        (Obs.Metrics.gauge reg "host.sim_cycles_per_sec")
        (if host_secs > 0.0 then
           float_of_int r.Xmtsim.Machine.cycles /. host_secs
         else 0.0);
      (* spatial distributions *)
      let act =
        Obs.Metrics.histogram reg
          ~buckets:[ 0.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. ]
          "sim.cluster.instructions"
      in
      Array.iter
        (fun n -> Obs.Metrics.observe act (float_of_int n))
        (Xmtsim.Machine.cluster_activity m);
      (* power/thermal, when the sampling plug-in ran *)
      (match power with
      | Some (p, th) ->
        Xmtsim.Power.export p reg;
        Xmtsim.Thermal.export th reg
      | None -> ());
      (match gov with Some g -> Xmtsim.Governor.export g reg | None -> ());
      let j =
        (* the governor's decision log rides along as an extra top-level
           section of the metrics envelope (schema allows it since v2) *)
        match (Obs.Metrics.to_json reg, gov) with
        | Obs.Json.Obj fields, Some g ->
          Obs.Json.Obj (fields @ [ ("governor", Xmtsim.Governor.to_json g) ])
        | j, _ -> j
      in
      Obs.Json.write_path ~pretty:true path j);
    (match (trace_json, tracer, spans) with
    | Some path, Some tr, Some sp ->
      Xmtsim.Trace.flush_spans sp;
      (* profile samples become a counter track *)
      (match profiler with
      | Some p ->
        List.iter
          (fun s ->
            Obs.Tracer.counter tr ~ts:s.Xmtsim.Plugin.ps_cycle "activity"
              [
                ("compute", float_of_int s.Xmtsim.Plugin.ps_compute);
                ("memory", float_of_int s.Xmtsim.Plugin.ps_memory);
                ("memwait", float_of_int s.Xmtsim.Plugin.ps_memwait);
              ])
          (Xmtsim.Plugin.samples_in_order p)
      | None -> ());
      (* host wall-clock on its own process track *)
      Obs.Tracer.name_process tr ~pid:2 "host (ts = microseconds)";
      Obs.Tracer.name_thread tr ~pid:2 ~tid:1 "xmtsim_cli";
      Obs.Tracer.complete tr ~pid:2 ~tid:1 ~ts:0
        ~dur:(int_of_float (host_secs *. 1e6))
        ~cat:"host"
        ~args:
          [
            ("events_processed", Obs.Tracer.A_int events);
            ("events_per_sec", Obs.Tracer.A_float events_per_sec);
            ("sim_cycles", Obs.Tracer.A_int r.Xmtsim.Machine.cycles);
          ]
        "simulation-run";
      Obs.Json.write_path path (Obs.Tracer.to_json tr)
    | _ -> ());
    (match (timeseries_json, series) with
    | Some path, Some s ->
      (* fold the execution profile into the timeseries so the window
         has the machine-activity channels alongside the governor's *)
      (match profiler with
      | Some p ->
        let chans =
          List.map
            (fun (name, help) -> Obs.Timeseries.channel s ~help name)
            [
              ("sim.profile.compute", "TCU compute instructions in window");
              ("sim.profile.memory", "memory instructions in window");
              ("sim.profile.memwait", "TCU-cycles stalled on memory in window");
            ]
        in
        List.iter
          (fun smp ->
            let t = smp.Xmtsim.Plugin.ps_cycle in
            List.iter2
              (fun c v -> Obs.Timeseries.push c ~t (float_of_int v))
              chans
              [
                smp.Xmtsim.Plugin.ps_compute;
                smp.Xmtsim.Plugin.ps_memory;
                smp.Xmtsim.Plugin.ps_memwait;
              ])
          (Xmtsim.Plugin.samples_in_order p)
      | None -> ());
      Obs.Json.write_path ~pretty:true path (Obs.Timeseries.to_json s)
    | _ -> ());
    (match racedet with
    | None -> ()
    | Some rd ->
      let findings = static_findings () in
      print_findings findings;
      let nraces = Xmtsim.Racedetect.race_count rd in
      Printf.eprintf
        "racecheck: %d static finding(s), %d dynamic race(s) (%d shadow \
         event(s) over %d spawn epoch(s))\n"
        (List.length findings) nraces
        (Xmtsim.Racedetect.events rd)
        (Xmtsim.Racedetect.epochs rd);
      (match races_json with
      | Some path ->
        Obs.Json.write_path ~pretty:true path
          (Racecheck.report ~dynamic:(Xmtsim.Racedetect.to_json rd) findings)
      | None -> ()));
    (match stream with
    | Some s ->
      let dropped = Obs.Stream.dropped s in
      Obs.Stream.close s;
      if dropped > 0 then
        Printf.eprintf "xmtsim: stream: %d record(s) dropped (queue full)\n"
          dropped
    | None -> ());
    (match hot_filter with
    | Some f ->
      Printf.printf "---- plugin %s ----\n%s\n" f.Xmtsim.Plugin.probe.Xmtsim.Probe.name
        (f.Xmtsim.Plugin.report ())
    | None -> ());
    match (floorplan, power) with
    | true, Some (_, th) ->
      let temps = Xmtsim.Thermal.temperatures th in
      let nclusters = config.Xmtsim.Config.num_clusters in
      print_string
        (Xmtsim.Floorplan.render ~title:"final temperature floorplan"
           ~grid_w:(max 1 (int_of_float (sqrt (float_of_int nclusters))))
           (Array.sub temps 0 nclusters))
    | _ -> ()
  end

let input = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.{c,s}")

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
    else
      Error
        (`Msg
          (Printf.sprintf "unknown export kind %S (%s)" kind
             Obs.Schema.export_kinds_doc))
  in
  let print ppf (k, p) = Format.fprintf ppf "%s=%s" k p in
  Arg.conv (parse, print)

let preset =
  Arg.(value & opt string "fpga64" & info [ "c"; "config" ] ~docv:"PRESET"
         ~doc:"Configuration preset: tiny, fpga64, chip1024.")

let overrides =
  Arg.(value & opt_all string [] & info [ "set" ] ~docv:"KEY=VAL"
         ~doc:"Override a configuration parameter (repeatable).")

let cmd =
  let doc = "simulate an XMT program (cycle-accurate or functional)" in
  Cmd.v
    (Cmd.info "xmtsim" ~doc)
    Term.(
      const run_cmd $ input $ preset $ overrides
      $ Arg.(value & flag & info [ "functional" ]
               ~doc:"Fast functional (serializing) mode (same as --mode \
                     functional).")
      $ Arg.(value & opt (some string) None & info [ "mode" ] ~docv:"MODE"
               ~doc:"Execution mode: cycle (the cycle-accurate simulator, \
                     default), functional (fast serializing interpreter), or \
                     predict (one functional pass harvests a reuse profile \
                     and the analytical model predicts the cycle count — \
                     add --export predict/reuseprofile for the reports).")
      $ Arg.(value & opt (some file) None & info [ "calibration" ] ~docv:"FILE"
               ~doc:"xmt.calibration.v1 artifact with fitted model \
                     coefficients for --mode predict (default: the built-in \
                     fit).")
      $ Arg.(value & opt (some file) None & info [ "memmap" ] ~docv:"FILE"
               ~doc:"Memory-map file with initial values of globals.")
      $ Arg.(value & opt (some int) None & info [ "max-cycles" ] ~docv:"N")
      $ Arg.(value & flag & info [ "stats" ] ~doc:"Print simulation statistics.")
      $ Arg.(value & flag & info [ "trace" ] ~doc:"Print an execution trace.")
      $ Arg.(value & flag & info [ "trace-packages" ]
               ~doc:"Print the cycle-accurate package trace (per station).")
      $ Arg.(value & opt int 200 & info [ "trace-limit" ] ~docv:"N")
      $ Arg.(value & flag & info [ "hot" ]
               ~doc:"Enable the hot-memory-locations filter plug-in.")
      $ Arg.(value & opt int 0 & info [ "profile-interval" ] ~docv:"CYCLES"
               ~doc:"Sample an execution profile every N cycles (0 = off).")
      $ Arg.(value & opt int 0 & info [ "power-interval" ] ~docv:"CYCLES"
               ~doc:"Sample power/temperature every N cycles (0 = off).")
      $ Arg.(value & flag & info [ "floorplan" ]
               ~doc:"Render the final temperature floorplan (with \
                     --power-interval).")
      $ Arg.(value & opt (some string) None & info [ "checkpoint-out" ] ~docv:"FILE"
               ~doc:"Write a checkpoint (after the run, or at --checkpoint-at).")
      $ Arg.(value & opt (some int) None & info [ "checkpoint-at" ] ~docv:"CYCLE"
               ~doc:"Take the checkpoint at (the first quiescent point after) \
                     this cycle, then continue running.")
      $ Arg.(value & opt (some file) None & info [ "checkpoint-in" ] ~docv:"FILE"
               ~doc:"Restore a checkpoint before the run.")
      $ Arg.(value & flag & info [ "governor" ]
               ~doc:"Enable the telemetry-driven DVFS governor: thresholds \
                     on windowed ICN backlog and modeled temperature \
                     throttle/restore the cluster and ICN clock domains; \
                     decisions appear in --export stats (governor section), \
                     --export trace and --export timeseries.")
      $ Arg.(value & opt int 2000 & info [ "governor-interval" ] ~docv:"CYCLES"
               ~doc:"Governor sampling interval in cluster cycles.")
      $ Arg.(value & flag & info [ "no-clock-gating" ]
               ~doc:"Keep every clock domain ticking even when idle.  \
                     Gating never changes simulated results — cycle \
                     counts, output and stats are bit-identical either \
                     way — this flag only exists to measure the host-side \
                     event-count reduction (compare host.events_processed \
                     in --export stats).")
      $ Arg.(value & flag & info [ "racecheck" ]
               ~doc:"Attach the race & memory-model checker: the static \
                     spawn-block analysis (XMTC inputs) plus the dynamic \
                     shadow-memory race detector (cycle-accurate mode).  \
                     Findings go to stderr; add --export races=FILE for \
                     the xmt.races.v1 JSON report.")
      $ Arg.(value & flag & info [ "profile" ]
               ~doc:"Attach the cycle-accounting profiler and print per-TCU \
                     CPI stacks: every TCU cycle attributed to one bucket \
                     (compute, spawn/join, ICN, cache hit, DRAM, \
                     prefetch-covered, fence/ps), idle by subtraction, so \
                     the stack sums exactly to the run's TCU-cycles.  XMTC \
                     inputs (and assembly from $(b,xmtcc -g)) also get \
                     per-source-line hot-spot tables and a flame-style \
                     view.  The profiler is passive: cycles, stats and \
                     traces are bit-identical with or without it.  Add \
                     --export profile=FILE for the xmt.profile.v1 JSON \
                     report.")
      $ Arg.(value & opt_all export_conv [] & info [ "export" ]
               ~docv:"KIND[=PATH]"
               ~doc:"Write a JSON export (repeatable).  KIND is stats \
                     (metrics: activity counters, cache hit rates, latency \
                     histograms, host throughput), trace (Chrome \
                     trace-event spans; cycle-accurate mode only), \
                     timeseries (windowed telemetry; cycle-accurate mode \
                     only), profile (the xmt.profile.v1 CPI-stack report; \
                     cycle-accurate mode, or with --campaign the merged \
                     campaign-level stack), predict (the xmt.predict.v1 \
                     analytical prediction; --mode predict only), \
                     reuseprofile (the harvested xmt.reuseprofile.v1 \
                     profile; --mode predict only), campaign (the \
                     xmt.campaign.v1 report; with --campaign) or \
                     campaign-det (the report without \
                     host-dependent fields — byte-identical across worker \
                     counts, for determinism diffs).  PATH defaults to \
                     KIND.json; use - for stdout.")
      $ Arg.(value & opt (some file) None & info [ "campaign" ] ~docv:"FILE.json"
               ~doc:"Run an xmt.campaign.v1 campaign: independent \
                     compile+simulate jobs fanned out over --jobs worker \
                     domains with per-job fault isolation and deterministic \
                     result ordering.  Writes the campaign report (see \
                     --export campaign) and exits nonzero if any job \
                     failed.")
      $ Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
               ~doc:"Worker domains for --campaign (1 = serial; clamped to \
                     the job count; work-stealing, compiles shared across \
                     jobs with the same source and compiler options; \
                     results are byte-identical for any value).  Overrides \
                     the spec file's exec.jobs; default 1.")
      $ Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N"
               ~doc:"Per-job retry budget for --campaign.  Overrides the \
                     spec file's exec.retries; default 0.")
      $ Arg.(value & opt (some string) None & info [ "stream" ] ~docv:"SINK"
               ~doc:"Stream live xmt.events.v1 telemetry as NDJSON to SINK \
                     (a path, - for stdout, or fd:N for an inherited file \
                     descriptor).  Single runs emit run.start, periodic \
                     sim.heartbeat records (see --heartbeat-cycles), \
                     window.close rollups and a run.done summary; \
                     --campaign streams job lifecycle and \
                     campaign.progress/ETA records instead.  The producer \
                     never blocks the simulator: on overflow records are \
                     dropped and counted (host.stream.dropped in --export \
                     stats).  Cycle-accurate mode only.")
      $ Arg.(value & opt int 10_000 & info [ "heartbeat-cycles" ] ~docv:"N"
               ~doc:"Cluster-cycle interval between sim.heartbeat records \
                     on --stream.")
      $ Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"SOCKET"
               ~doc:"Run the campaign through an $(b,xmtserved) daemon \
                     listening on this Unix socket instead of in-process: \
                     --campaign FILE.json submits the spec and streams the \
                     live per-job results back (add --stream SINK to keep \
                     the NDJSON); --attach CID rejoins a running or \
                     completed campaign.  If the connection drops the \
                     campaign keeps running server-side and xmtsim exits 3 \
                     with the reconnect command.")
      $ Arg.(value & opt (some string) None & info [ "attach" ] ~docv:"CID"
               ~doc:"With --connect: re-subscribe to campaign CID and \
                     stream its records (the server replays anything \
                     missed).")
      $ Arg.(value & opt (some string) None & info [ "after" ] ~docv:"JOB:JSEQ"
               ~doc:"With --attach: acknowledge the last record already \
                     received; the server re-streams strictly after it."))

(* the deprecated one-flag-per-sink aliases were removed in favor of
   --export; fail fast with the replacement before cmdliner's generic
   unknown-option error *)
let removed_flags =
  [
    ("--stats-json", "stats");
    ("--trace-json", "trace");
    ("--timeseries-json", "timeseries");
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
      | Some kind ->
        Printf.eprintf
          "xmtsim: unknown option %s (removed); use --export %s[=PATH]\n" flag
          kind;
        exit 124
      | None -> ())
    Sys.argv;
  exit (Cmd.eval cmd)
