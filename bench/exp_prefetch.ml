(** §IV-C / ref [8] — compiler prefetching and the prefetch-buffer design
    space.

    Sweeps the per-TCU prefetch buffer size and replacement policy (the
    resource-aware study of [8]) and ablates the compiler pass itself.
    Reproduction targets: prefetching beats no-prefetching on
    memory-intensive kernels; benefit saturates with buffer size; the
    compiler's prefetch outperforms disabling it at every size. *)

open Bench_util

let run () =
  section "\xc2\xa7IV-C / [8]: prefetch buffer size and replacement policy sweep";
  let src = Core.Kernels.par_mem2 ~threads:1024 ~iters:32 ~n:65536 in
  let compiled = compile src in
  let compiled_nopref =
    compile
      ~options:
        { Compiler.Driver.default_options with Compiler.Driver.prefetch = false }
      src
  in
  let cycles_with ~size ~policy ~compiled =
    let cfg =
      Xmtsim.Config.with_overrides Xmtsim.Config.chip1024
        [ Printf.sprintf "prefetch_buffer_size=%d" size;
          "prefetch_policy=" ^ policy ]
    in
    let r = Core.Toolchain.run_cycle ~config:cfg compiled in
    (r.Core.Toolchain.cycles, r.Core.Toolchain.stats)
  in
  Printf.printf "workload: par_mem2 (two streams/thread), 1024 threads x 32 accesses, chip1024\n\n";
  Printf.printf "%8s %14s %14s %14s %12s\n" "size" "FIFO cycles" "LRU cycles"
    "no-pref pass" "pbuf hit%";
  let base_cycles = ref 0 in
  let best = ref max_int in
  List.iter
    (fun size ->
      let fifo, stats = cycles_with ~size ~policy:"fifo" ~compiled in
      let lru, _ = cycles_with ~size ~policy:"lru" ~compiled in
      let off, _ = cycles_with ~size ~policy:"fifo" ~compiled:compiled_nopref in
      if size = 0 then base_cycles := fifo;
      if fifo < !best then best := fifo;
      let hits = stats.Xmtsim.Stats.prefetch_hits + stats.Xmtsim.Stats.prefetch_late in
      let total = hits + stats.Xmtsim.Stats.prefetch_misses in
      Printf.printf "%8d %14s %14s %14s %11.1f%%\n%!" size (commas fifo)
        (commas lru) (commas off)
        (if total = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int total))
    [ 0; 1; 2; 4; 8; 16 ];
  Printf.printf "\nshape checks:\n";
  check (!best < !base_cycles) "prefetching helps (best %s vs size-0 %s): %.2fx"
    (commas !best) (commas !base_cycles)
    (float_of_int !base_cycles /. float_of_int !best)
