(** §IV-C — latency-tolerating mechanisms ablation.

    The XMT shared L1 is tens of cycles away; the architecture hides that
    with non-blocking stores, TCU prefetch buffers and read-only caches,
    and the compiler automatically uses the first two.  Ablates each
    compiler mechanism on a memory-intensive kernel.  Reproduction
    targets: every mechanism on > each one off > both off. *)

open Bench_util

let run () =
  section "\xc2\xa7IV-C: latency-tolerance ablation (par_mem, 1024 threads, chip1024)";
  let src = Core.Kernels.par_mem ~threads:1024 ~iters:32 ~n:65536 in
  let dflt = Compiler.Driver.default_options in
  let variants =
    [
      ("all mechanisms on", dflt);
      ("no compiler prefetch", { dflt with Compiler.Driver.prefetch = false });
      ("blocking stores", { dflt with Compiler.Driver.nbstore = false });
      ( "neither",
        { dflt with Compiler.Driver.prefetch = false; nbstore = false } );
    ]
  in
  Printf.printf "%-26s %12s %14s\n" "compiler variant" "cycles" "vs all-on";
  let base = ref 0 in
  let rows =
    List.map
      (fun (name, options) ->
        let compiled = compile ~options src in
        let r = Core.Toolchain.run_cycle ~config:Xmtsim.Config.chip1024 compiled in
        if !base = 0 then base := r.Core.Toolchain.cycles;
        Printf.printf "%-26s %12s %13.2fx\n%!" name (commas r.Core.Toolchain.cycles)
          (float_of_int r.Core.Toolchain.cycles /. float_of_int !base);
        (name, r.Core.Toolchain.cycles))
      variants
  in
  let get n = List.assoc n rows in
  Printf.printf "\nshape check:\n";
  check
    (get "all mechanisms on" <= get "neither")
    "all-on (%s) <= neither (%s)"
    (commas (get "all mechanisms on"))
    (commas (get "neither"))
