(** §IV-C — virtual-thread clustering (coarsening).

    Extremely fine-grained spawn blocks pay one ps+chkid dispatch round per
    virtual thread; clustering groups [c] threads into one, cutting the
    scheduling overhead by [c] and enabling loop prefetching.  The factor
    sweep runs as one campaign (compiler options are part of the job, so
    each point recompiles independently — [--jobs N] parallelizes it).
    Reproduction target: cycles improve with moderate clustering on a
    fine-grained kernel, then flatten or regress once threads become
    scarce relative to TCUs (load imbalance). *)

open Bench_util

let run () =
  section "\xc2\xa7IV-C: virtual-thread clustering sweep (vecadd, n=16384, fpga64)";
  let n = 16384 in
  let src = Core.Kernels.vecadd ~n in
  let factors = [ 1; 2; 4; 8; 16; 32; 64 ] in
  Printf.printf "%10s %12s %16s %14s\n" "factor" "cycles" "virtual threads"
    "vs factor 1";
  let specs =
    List.map
      (fun factor ->
        let options =
          { Compiler.Driver.default_options with Compiler.Driver.cluster = factor }
        in
        ( Printf.sprintf "cluster=%d" factor,
          Core.Toolchain.job
            ~name:(Printf.sprintf "cluster=%d" factor)
            ~options ~config:Xmtsim.Config.fpga64 src ))
      factors
  in
  let rs = run_jobs specs in
  let base = rs.(0).Core.Toolchain.cycles in
  let best = ref max_int in
  List.iteri
    (fun i factor ->
      let r = rs.(i) in
      if r.Core.Toolchain.cycles < !best then best := r.Core.Toolchain.cycles;
      Printf.printf "%10d %12s %16d %13.2fx\n%!" factor
        (commas r.Core.Toolchain.cycles)
        r.Core.Toolchain.stats.Xmtsim.Stats.virtual_threads
        (float_of_int base /. float_of_int r.Core.Toolchain.cycles))
    factors;
  Printf.printf "\nshape check:\n";
  check (!best < base) "some clustering factor beats factor 1: %.2fx"
    (float_of_int base /. float_of_int !best)
