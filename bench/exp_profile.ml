(** Cycle-accounting profiler overhead and exactness.

    The profiler is a passive observer: a machine without one must pay
    nothing it can measure, and attaching one must never perturb the
    simulation — cycles, output, stats and even the host event count
    (clock gating untouched) are bit-identical.  Reproduction targets:
    that bit-identity, the exactness contract (per-TCU buckets + idle sum
    to the run's grid ticks), near-complete source attribution on a
    compiler-built image, and a measured host-side cost of the per-cycle
    bookkeeping (reported with a <10% target; gated only through the
    record's cycle count — wall-clock is noise-sensitive).  The workload
    mixes a memory-bound and a compute-bound spawn so every major bucket
    is exercised. *)

open Bench_util

let n = 16384

let run () =
  section "profile: cycle-accounting profiler overhead";
  let compiled = compile (Core.Kernels.vecadd ~n) in
  let run_once ~attach =
    let m = Core.Toolchain.machine ~config:Xmtsim.Config.fpga64 compiled in
    let p = if attach then Some (Xmtsim.Profile.attach m) else None in
    let r, secs = wall (fun () -> Xmtsim.Machine.run m) in
    (m, r, p, secs)
  in
  (* interleaved best-of-5 wall times, so neither figure is dominated by
     a cold first run or a transient host hiccup *)
  let keep_best best run = match best with
    | Some (_, _, _, bs) when bs <= (fun (_, _, _, s) -> s) run -> best
    | _ -> Some run
  in
  let best_off = ref None and best_on = ref None in
  for _ = 1 to 5 do
    best_off := keep_best !best_off (run_once ~attach:false);
    best_on := keep_best !best_on (run_once ~attach:true)
  done;
  let m_off, r_off, _, secs_off = Option.get !best_off in
  let m_on, r_on, p_on, secs_on = Option.get !best_on in
  let cycles_off = Xmtsim.Machine.cycles m_off in
  let cycles_on = Xmtsim.Machine.cycles m_on in
  let events_off = Xmtsim.Machine.events_processed m_off in
  let events_on = Xmtsim.Machine.events_processed m_on in
  let overhead =
    if secs_off > 0.0 then 100.0 *. ((secs_on /. secs_off) -. 1.0) else 0.0
  in
  let rp = Xmtsim.Profile.report (Option.get p_on) in
  let exact =
    Array.for_all
      (fun row ->
        row.Xmtsim.Profile.r_idle >= 0
        && Array.fold_left ( + ) 0 row.Xmtsim.Profile.r_buckets
           + row.Xmtsim.Profile.r_idle
           = rp.Xmtsim.Profile.rp_total)
      rp.Xmtsim.Profile.rp_tcus
  in
  let attr = Xmtsim.Profile.attribution_rate rp in
  Printf.printf "  profiler off: %s cycles, %.2f s host\n" (commas cycles_off)
    secs_off;
  Printf.printf "  profiler on:  %s cycles, %.2f s host\n" (commas cycles_on) secs_on;
  check ~host:true (overhead < 10.0) "host cost %+.1f%% (target <10%%)" overhead;
  check
    (cycles_off = cycles_on && r_off = r_on && events_off = events_on
    && Xmtsim.Machine.stats m_off = Xmtsim.Machine.stats m_on)
    "profiler does not perturb the simulation";
  check exact "per-TCU CPI stacks sum exactly to %s grid ticks" (commas rp.Xmtsim.Profile.rp_total);
  check (attr >= 0.95) "source attribution %.1f%% of non-idle cycles (target >= 95%%)"
    (100.0 *. attr);
  emit_record ~name:"profile"
    [
      ("config", Obs.Json.Str "fpga64");
      ("cycles", Obs.Json.Int cycles_on);
      ("host_wall_seconds", Obs.Json.Float secs_off);
      ("events_processed", Obs.Json.Int events_off);
      ( "events_per_sec",
        Obs.Json.Float
          (if secs_off > 0.0 then float_of_int events_off /. secs_off else 0.0)
      );
      ("profiler_host_overhead_pct", Obs.Json.Float overhead);
      ("attribution_rate", Obs.Json.Float attr);
      ( "nonidle_cycles",
        Obs.Json.Int rp.Xmtsim.Profile.rp_attr.Xmtsim.Profile.a_nonidle );
    ]
