(** Campaign-engine self-benchmark: the full §III design-space sweep
    ({!Exp_designspace.all_specs}, 18 independent compile+simulate jobs)
    run serially and then across worker domains {e on the same warm
    pool} — helper domains already spawned, compiled artifacts already
    shared — so the two timings compare scheduling and simulation, not
    [Domain.spawn] or recompiles.

    Two claims are checked and recorded:
    - determinism: the host-independent campaign reports of the serial
      and parallel runs are byte-identical (hard failure here);
    - throughput: parallel wall-clock vs serial.  The record carries
      [speedup] and [host_cores]; the bench gate {e enforces
      speedup > 1} whenever the host has at least two cores (on a
      single-core host parallelism cannot win and the bound is
      reported but not enforced). *)

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
  let campaign w =
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
  if not identical then failwith "campaign bench: serial/parallel reports differ";
  let total_cycles =
    Array.fold_left
      (fun acc r ->
        match r.Campaign.r_outcome with
        | Ok run -> acc + run.Core.Toolchain.cycles
        | Error _ -> acc)
      0 rs
  in
  let total_events =
    Array.fold_left
      (fun acc r ->
        match r.Campaign.r_outcome with
        | Ok run -> acc + run.Core.Toolchain.events
        | Error _ -> acc)
      0 rs
  in
  emit_record ~name:"campaign"
    [
      ("jobs", Obs.Json.Int total);
      ("workers", Obs.Json.Int workers);
      (* the gate only enforces the speedup bound on multi-core hosts *)
      ("host_cores", Obs.Json.Int host_cores);
      (* deterministic: sum of simulated cycles across the sweep *)
      ("cycles", Obs.Json.Int total_cycles);
      ("serial_seconds", Obs.Json.Float serial_secs);
      ("parallel_seconds", Obs.Json.Float parallel_secs);
      ("speedup", Obs.Json.Float speedup);
      ("artifact_hits", Obs.Json.Int hits);
      ("artifact_compiles", Obs.Json.Int misses);
      ( "events_per_sec",
        Obs.Json.Float
          (if parallel_secs > 0.0 then
             float_of_int total_events /. parallel_secs
           else 0.0) );
      ("deterministic", Obs.Json.Bool identical);
    ]
