(** Campaign-engine self-benchmark: the full §III design-space sweep
    ({!Exp_designspace.all_specs}, 18 independent compile+simulate jobs)
    run serially and then across worker domains {e on the same warm
    pool} — helper domains already spawned, compiled artifacts already
    shared — so the two timings compare scheduling and simulation, not
    [Domain.spawn] or recompiles.

    Then the same 18 points run in predict mode, serially and in
    parallel, through a fresh artifact cache: one program, so one
    reuse-profile harvest prices every point.

    Four claims are checked, each fatal:
    - determinism: the host-independent campaign reports of the serial
      and parallel runs are byte-identical, for the cycle and the
      predict sweep;
    - sharing: the 36 predict jobs run exactly one harvest;
    - the sweep's simulated cycles, summed over its jobs, equal the
      pinned figure;
    - throughput: parallel wall-clock beats serial (speedup > 1)
      whenever the host has at least two cores (on a single-core host
      parallelism cannot win, so the speedup is only printed). *)

open Bench_util

let run () =
  section "campaign engine: parallel design-space sweep (determinism + speedup)";
  let specs = Exp_designspace.all_specs () in
  let total = List.length specs in
  let host_cores = Domain.recommended_domain_count () in
  let workers =
    if !jobs > 1 then !jobs else min 4 (max 2 host_cores)
  in
  let pool = pool ~workers in
  let campaign ?(artifacts = artifacts) ?(specs = specs) w =
    let req = Campaign.Request.make ~jobs:w specs in
    let rs, secs =
      wall (fun () -> Campaign.run_request ~pool ~artifacts req)
    in
    if Campaign.failed_count rs > 0 then
      failwith "campaign bench: a sweep job failed";
    (Obs.Json.to_string (Campaign.report_to_json ~host:false rs), rs, secs)
  in
  Printf.printf "%d jobs (par_mem sweep), %d host cores, serial then %d workers...\n%!"
    total host_cores workers;
  (* warm-up: fill the artifact cache and fault in the pool, so serial
     and parallel both measure steady-state throughput *)
  let _ = campaign workers in
  let serial_report, rs, serial_secs = campaign 1 in
  let parallel_report, _, parallel_secs = campaign workers in
  let identical = String.equal serial_report parallel_report in
  let speedup = if parallel_secs > 0.0 then serial_secs /. parallel_secs else 0.0 in
  let hits, misses = Core.Toolchain.Artifacts.stats artifacts in
  Printf.printf "  serial:   %6.2f s\n  %d workers: %6.2f s  (%.2fx)\n%!"
    serial_secs workers parallel_secs speedup;
  Printf.printf "  compiles: %d shared artifacts, %d cache hits\n%!" misses hits;
  check identical "reports byte-identical";
  let total_cycles =
    Array.fold_left
      (fun acc r ->
        match r.Campaign.r_outcome with
        | Ok run -> acc + run.Core.Toolchain.cycles
        | Error _ -> acc)
      0 rs
  in
  pinned (Printf.sprintf "sweep (%d jobs)" total) ~expect:161_973 total_cycles;
  let cache = Core.Toolchain.Artifacts.create () in
  let priced w =
    let report, _, _ =
      campaign ~artifacts:cache
        ~specs:(List.map (fun (name, j) -> (name, { j with Core.Toolchain.mode = Predict })) specs)
        w
    in
    report
  in
  let serial_priced = priced 1 in
  let parallel_priced = priced workers in
  let shared, harvested = Core.Toolchain.Artifacts.harvest_stats cache in
  Printf.printf "  predict copy: %d harvest run, %d shared\n%!" harvested shared;
  check (harvested = 1) "%d predict jobs ran %d harvest (want 1)" (2 * total) harvested;
  check (String.equal serial_priced parallel_priced) "predict reports byte-identical";
  if host_cores >= 2 then
    check (speedup > 1.0) "%d workers beat serial on %d host cores (%.2fx > 1)"
      workers host_cores speedup
