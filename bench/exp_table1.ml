(** Table I — simulated throughputs of XMTSim.

    The paper measured, on a 3 GHz Xeon host, the simulator's throughput in
    simulated instructions/second and simulated cycles/second for four
    hand-written microbenchmark groups on the 1024-TCU configuration:

    {v
    group                          instr/s    cycle/s
    parallel, memory intensive     98 K       5.5 K
    parallel, computation int.     2.23 M     10 K
    serial, memory intensive       76 K       519 K
    serial, computation int.       1.7 M      4.2 M
    v}

    The reproduction targets are the shape relations: computation-intensive
    groups sustain far higher instruction throughput than memory-intensive
    ones (memory instructions drag the expensive interconnect model into
    the hot path), and serial groups sustain far higher cycle throughput
    than parallel ones (a parallel cycle simulates >1000 active
    components). *)

open Bench_util

let groups =
  [
    ( "parallel, memory intensive",
      Core.Kernels.par_mem ~threads:2048 ~iters:24 ~n:65536 );
    ("parallel, computation intensive", Core.Kernels.par_comp ~threads:2048 ~iters:80);
    ("serial, memory intensive", Core.Kernels.ser_mem ~iters:4000 ~n:65536);
    ("serial, computation intensive", Core.Kernels.ser_comp ~iters:30000);
  ]

let run () =
  section
    "Table I: simulated throughputs of XMTSim (1024-TCU configuration, host \
     wall clock)";
  Printf.printf "%-34s %14s %14s %12s %12s\n" "benchmark group" "sim instrs"
    "sim cycles" "instr/s" "cycle/s";
  let results =
    List.map
      (fun (name, src) ->
        let compiled = compile src in
        let run_once () =
          Core.Toolchain.run_cycle ~config:Xmtsim.Config.chip1024 compiled
        in
        (* one instrumented run for the simulated counts + BENCH record *)
        let r = record_run ~config:Xmtsim.Config.chip1024 ~name compiled in
        (* host time via Bechamel (same deterministic run repeated) *)
        let ns = bechamel_ns_per_run ~quota:3.0 ~name (fun () -> ignore (run_once ())) in
        let secs = ns /. 1e9 in
        let ips = float_of_int r.Core.Toolchain.instructions /. secs in
        let cps = float_of_int r.Core.Toolchain.cycles /. secs in
        Printf.printf "%-34s %14s %14s %11.0f %11.0f\n%!" name
          (commas r.Core.Toolchain.instructions)
          (commas r.Core.Toolchain.cycles)
          ips cps;
        (name, ips, cps))
      groups
  in
  let get n = List.find (fun (m, _, _) -> m = n) results in
  let _, pm_i, pm_c = get "parallel, memory intensive" in
  let _, pc_i, pc_c = get "parallel, computation intensive" in
  let _, sm_i, sm_c = get "serial, memory intensive" in
  let _, sc_i, sc_c = get "serial, computation intensive" in
  (* host throughputs: targets, not exact checks *)
  Printf.printf "\nshape checks (paper Table I):\n";
  check ~host:true (pc_i > pm_i) "parallel compute instr/s  >> parallel memory instr/s : %.1fx"
    (pc_i /. pm_i);
  check ~host:true (sc_i > sm_i) "serial   compute instr/s  >> serial   memory instr/s : %.1fx"
    (sc_i /. sm_i);
  check ~host:true (sm_c > pm_c) "serial   memory  cycle/s  >> parallel memory cycle/s : %.1fx"
    (sm_c /. pm_c);
  check ~host:true (sc_c > pc_c) "serial   compute cycle/s  >> parallel compute cycle/s: %.1fx"
    (sc_c /. pc_c)
