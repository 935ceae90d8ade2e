(** Live telemetry streaming overhead (xmt.events.v1).

    The same serial-heavy workload as [exp_serial] run twice: once
    plain, once with an {!Obs.Stream} attached (a heartbeat every
    10,000 cluster cycles — the production default — feeding a file
    sink).  The producer rides the cluster clock's existing tick events,
    so the streamed run must be bit-identical to the plain one — output,
    cycle count, statistics and even the host-side desim event count —
    and the host wall-clock overhead should stay under 5% (a target,
    noise-sensitive).  The fatal host check is against collapse: the
    streamed run takes under 20x the plain one, measured in the same
    process. *)

open Bench_util

let iters = 24_000
let n = 8192
let heartbeat_cycles = 10_000

let run () =
  section "stream: live telemetry overhead on the serial workload";
  let compiled = compile (Core.Kernels.ser_mem ~iters ~n) in
  let config = Xmtsim.Config.fpga64 in
  (* warm-up run so allocator/page-cache cold-start noise doesn't land
     on the measurements *)
  ignore (Xmtsim.Machine.run (Core.Toolchain.machine ~config compiled));
  let run_plain () =
    let m = Core.Toolchain.machine ~config compiled in
    let r, secs = wall (fun () -> Xmtsim.Machine.run m) in
    (m, r, secs)
  in
  let run_streamed () =
    let sink_path = Filename.temp_file "xmt_stream_bench" ".ndjson" in
    let stream = Obs.Stream.create (Obs.Stream.sink_of_path sink_path) in
    let m = Core.Toolchain.machine ~config compiled in
    ignore (Xmtsim.Heartbeat.attach ~heartbeat_cycles m stream : unit -> unit);
    let r, secs = wall (fun () -> Xmtsim.Machine.run m) in
    Obs.Stream.close stream;
    (try Sys.remove sink_path with Sys_error _ -> ());
    (m, r, secs, Obs.Stream.emitted stream)
  in
  (* a single ~25 ms measurement is dominated by scheduler/GC noise and
     the heap drifts monotonically across runs, so measure the variants
     in adjacent pairs (drift cancels within a pair) and take the median
     of the per-pair overhead ratios *)
  let reps = 9 in
  let plain = Array.make reps (run_plain ()) in
  let streamed = Array.make reps (run_streamed ()) in
  for i = 1 to reps - 1 do
    plain.(i) <- run_plain ();
    streamed.(i) <- run_streamed ()
  done;
  let ratios =
    Array.init reps (fun i ->
        let _, _, p = plain.(i) and _, _, s, _ = streamed.(i) in
        if p > 0.0 then s /. p else 1.0)
  in
  Array.sort compare ratios;
  let ratio = ratios.(reps / 2) in
  let min_by f a = Array.fold_left (fun acc x -> min acc (f x)) infinity a in
  let secs_p = min_by (fun (_, _, s) -> s) plain in
  let secs_s = min_by (fun (_, _, s, _) -> s) streamed in
  let mp, rp, _ = plain.(0) in
  let ms, rs, _, records = streamed.(0) in
  let cycles_p = Xmtsim.Machine.cycles mp in
  let cycles_s = Xmtsim.Machine.cycles ms in
  let ev_p = Xmtsim.Machine.events_processed mp in
  let ev_s = Xmtsim.Machine.events_processed ms in
  let overhead_pct = 100.0 *. (ratio -. 1.0) in
  let stats_equal = Xmtsim.Machine.stats mp = Xmtsim.Machine.stats ms in
  Printf.printf "  plain:    %s cycles, %s events, %.2f s\n" (commas cycles_p)
    (commas ev_p) secs_p;
  Printf.printf "  streamed: %s cycles, %s events, %.2f s (%d records)\n"
    (commas cycles_s) (commas ev_s) secs_s records;
  check (rp = rs) "streamed run output and halt state identical";
  check (cycles_p = cycles_s) "cycle counts are bit-identical (%s)" (commas cycles_p);
  check stats_equal "statistics are bit-identical";
  check (ev_p = ev_s) "host event counts are identical (the producer schedules nothing)";
  check ~host:true (overhead_pct < 5.0) "host overhead %+.1f%% (target <5%%)" overhead_pct;
  check (ratio < 20.0) "streamed run takes under 20x the plain run (%.2fx)" ratio;
  pinned "streamed run" ~expect:1_896_579 cycles_s
