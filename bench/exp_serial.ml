(** §III-C — clock gating on a serial-heavy workload.

    The master TCU strides through a large array one miss at a time, so
    for most of the run every clock domain is provably idle: the caches
    have empty input queues and no outstanding MSHR entries, the DRAM
    queue is drained, and the master itself is parked on a memory-wait
    callback.  With gating on (the default) those domains sleep between
    requests and the event count collapses; with [--no-clock-gating]
    semantics ({!Xmtsim.Machine.set_gating} [m false]) every domain
    ticks every period.  Reproduction targets: bit-identical output,
    cycle count and statistics between the two runs, and a host
    events-per-simulated-cycle reduction of more than 20%. *)

open Bench_util

let iters = 6000
let n = 8192

let fresh_machine ~gating compiled =
  let m = Core.Toolchain.machine ~config:Xmtsim.Config.fpga64 compiled in
  if not gating then Xmtsim.Machine.set_gating m false;
  m

let run () =
  section "serial: clock gating on a serial-heavy workload (§III-C)";
  let compiled = compile (Core.Kernels.ser_mem ~iters ~n) in
  let mg = fresh_machine ~gating:true compiled in
  let rg, secs_g = wall (fun () -> Xmtsim.Machine.run mg) in
  let mu = fresh_machine ~gating:false compiled in
  let ru, secs_u = wall (fun () -> Xmtsim.Machine.run mu) in
  let cycles_g = Xmtsim.Machine.cycles mg in
  let cycles_u = Xmtsim.Machine.cycles mu in
  let ev_g = Xmtsim.Machine.events_processed mg in
  let ev_u = Xmtsim.Machine.events_processed mu in
  let epc_g = float_of_int ev_g /. float_of_int (max 1 cycles_g) in
  let epc_u = float_of_int ev_u /. float_of_int (max 1 cycles_u) in
  let reduction = 100.0 *. (1.0 -. (epc_g /. epc_u)) in
  let sg = Xmtsim.Machine.stats mg and su = Xmtsim.Machine.stats mu in
  let stats_equal =
    sg.Xmtsim.Stats.cache_hits = su.Xmtsim.Stats.cache_hits
    && sg.Xmtsim.Stats.cache_misses = su.Xmtsim.Stats.cache_misses
    && sg.Xmtsim.Stats.icn_packets = su.Xmtsim.Stats.icn_packets
    && sg.Xmtsim.Stats.dram_reads = su.Xmtsim.Stats.dram_reads
    && sg.Xmtsim.Stats.master_instrs = su.Xmtsim.Stats.master_instrs
  in
  Printf.printf "  gated:   %s cycles, %s events (%.2f events/cycle, %.1f s)\n"
    (commas cycles_g) (commas ev_g) epc_g secs_g;
  Printf.printf "  ungated: %s cycles, %s events (%.2f events/cycle, %.1f s)\n"
    (commas cycles_u) (commas ev_u) epc_u secs_u;
  Printf.printf "  events/cycle reduction: %.1f%%\n" reduction;
  check
    (rg = ru && Xmtsim.Machine.output mg = Xmtsim.Machine.output mu)
    "gated and ungated runs halt with identical output";
  check (cycles_g = cycles_u) "cycle counts are bit-identical (%s)" (commas cycles_g);
  check stats_equal "cache/ICN/DRAM statistics are bit-identical";
  check (reduction > 20.0) "events/cycle reduction exceeds 20%%";
  pinned "gated run" ~expect:474_153 cycles_g;
  pinned "ungated run" ~expect:474_153 cycles_u
