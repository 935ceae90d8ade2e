(** The evaluation harness: one experiment per table/figure/claim of the
    paper's evaluation (see DESIGN.md's experiment index).

    Run all:      dune exec bench/main.exe
    Run a subset: dune exec bench/main.exe -- table1 fig5 ... *)

let experiments =
  [
    ("table1", "Table I: simulated throughputs of XMTSim", Exp_table1.run);
    ("fig5", "Fig. 5/§III-D: DE vs DT and the macro-actor threshold", Exp_fig5.run);
    ("memmodel", "Figs. 6/7: memory-model litmus outcomes", Exp_memmodel.run);
    ("speedups", "§II-B: PRAM-program speedups over serial", Exp_speedups.run);
    ("modes", "§III-A: functional vs cycle-accurate speed", Exp_modes.run);
    ("prefetch", "§IV-C/[8]: prefetch buffer sweep", Exp_prefetch.run);
    ("clustering", "§IV-C: thread-clustering sweep", Exp_clustering.run);
    ("latency", "§IV-C: latency-tolerance ablation", Exp_latency.run);
    ("thermal", "§III-F: power/thermal management", Exp_thermal.run);
    ("serial", "§III-C: clock gating on a serial-heavy workload", Exp_serial.run);
    ("phases", "§III-F: phase sampling", Exp_phases.run);
    ("designspace", "§III: design-space sweeps", Exp_designspace.run);
    ( "campaign",
      "campaign engine: parallel design-space sweep, determinism + speedup",
      Exp_campaign.run );
    ( "racecheck",
      "race checker: shadow-memory detector overhead and non-perturbation",
      Exp_racecheck.run );
    ( "profile",
      "cycle-accounting profiler: host overhead, non-perturbation, exactness",
      Exp_profile.run );
    ( "stream",
      "live telemetry streaming: overhead and non-perturbation",
      Exp_stream.run );
    ( "serve",
      "campaign service: concurrent clients, throughput + latency",
      Exp_serve.run );
    ( "predict",
      "prediction mode: analytical-model accuracy and speed vs cycle-accurate",
      Exp_predict.run );
  ]

let () =
  (* --jobs N fans campaign-backed experiments (designspace, speedups,
     clustering, modes, campaign) out over N worker domains *)
  let rec strip_jobs acc = function
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some v when v >= 1 -> Bench_util.jobs := v
      | _ ->
        Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
        exit 1);
      strip_jobs acc rest
    | x :: rest -> strip_jobs (x :: acc) rest
    | [] -> List.rev acc
  in
  let selected =
    match strip_jobs [] (List.tl (Array.to_list Sys.argv)) with
    | _ :: _ as names -> names
    | [] -> List.map (fun (n, _, _) -> n) experiments
  in
  let t0 = Obs.Clock.now () in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, _, f) -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; have: %s\n" name
          (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
        exit 1)
    selected;
  Bench_util.shutdown_pool ();
  Printf.printf "\n(total bench wall time: %.1f s)\n"
    (Obs.Clock.elapsed_since t0);
  if !Bench_util.mismatches > 0 then begin
    Printf.eprintf "%d check(s) failed: see [MISMATCH] above\n" !Bench_util.mismatches;
    exit 1
  end
