(** §II-B — speedups of PRAM-derived programs over serial execution.

    The paper's evaluation record: BFS 5.4x-73x vs optimized GPU code,
    graph connectivity 2.2x-4x, and strong results vs serial CPUs; the
    64-TCU FPGA outperformed an Intel Core 2 Duo.  Our comparison is
    XMT-p vs the same algorithm run serially on the Master TCU (the
    toolchain cannot conjure the authors' GPUs), so the reproduction
    targets are: parallel wins by a large factor, the 1024-TCU
    configuration beats the 64-TCU one on large inputs, and irregular
    graph workloads scale.

    All serial/64-TCU/1024-TCU runs of every workload are one campaign
    ([--jobs N] fans them out); validation and the table render from the
    ordered results afterwards. *)

open Bench_util

let validate name expected got =
  if expected <> got then check false "%s: expected %S, got %S" name expected got

(* (display name, serial source, parallel source, memmap, expected output;
   None = validate parallel runs against the serial run's output) *)
let workloads () =
  let n = 4096 in
  let g = Core.Workloads.random_graph ~chain:16 ~seed:11 ~n ~edges_per_vertex:4 () in
  let reached, total = Core.Reference.bfs_summary g 0 in
  let gc = Core.Workloads.random_graph ~seed:3 ~n:1024 ~edges_per_vertex:3 () in
  let mc = Array.length gc.Core.Workloads.edges in
  let nc = 16384 in
  let a = Core.Workloads.sparse_array ~seed:5 ~n:nc ~density:35 in
  let nr = 16384 in
  let ar = Core.Workloads.random_array ~seed:6 ~n:nr ~bound:100 in
  let nf = 1024 in
  let re = Core.Workloads.random_float_array ~seed:1 ~n:nf in
  let imv = Core.Workloads.random_float_array ~seed:2 ~n:nf in
  let wr, wi = Core.Reference.fft_twiddles nf in
  let fmm =
    Isa.Memmap.of_floats [ ("re", re); ("im", imv); ("wr", wr); ("wi", wi) ]
  in
  [
    ( "BFS (n=4096)",
      Core.Kernels.bfs_serial ~n ~m:g.Core.Workloads.m,
      Core.Kernels.bfs ~n ~m:g.Core.Workloads.m ~src:0,
      Core.Workloads.graph_memmap g,
      Some (Printf.sprintf "%d %d" reached total) );
    ( "connectivity (n=1024)",
      Core.Kernels.connectivity_serial ~n:1024 ~m:mc,
      Core.Kernels.connectivity ~n:1024 ~m:mc,
      Core.Workloads.edgelist_memmap gc,
      Some (string_of_int (Core.Reference.components gc)) );
    ( "compaction (n=16384)",
      Core.Kernels.compaction_serial ~n:nc,
      Core.Kernels.compaction ~n:nc,
      Isa.Memmap.of_ints [ ("A", a) ],
      Some (string_of_int (Core.Reference.count_nonzero a)) );
    ( "reduction (n=16384)",
      Core.Kernels.reduce_serial ~n:nr,
      Core.Kernels.reduce_tree ~n:nr,
      Isa.Memmap.of_ints [ ("A", ar) ],
      Some (string_of_int (Core.Reference.sum ar)) );
    (* FFT (the §II-B [24] workload): validated against the serial run *)
    ("FFT (n=1024)", Core.Kernels.fft_serial ~n:nf, Core.Kernels.fft ~n:nf, fmm, None);
  ]

let run () =
  section "\xc2\xa7II-B: speedups of PRAM programs over serial (Master TCU) execution";
  Printf.printf "%-22s %12s %12s %12s %9s %9s\n" "workload" "serial cyc"
    "64-TCU cyc" "1024-TCU cyc" "64x" "1024x";
  let workloads = workloads () in
  let specs =
    List.concat_map
      (fun (name, serial_src, parallel_src, memmap, _) ->
        let j variant config src =
          let jn = name ^ "/" ^ variant in
          (jn, Core.Toolchain.job ~name:jn ~memmap ~config src)
        in
        [
          j "serial" Xmtsim.Config.fpga64 serial_src;
          j "p64" Xmtsim.Config.fpga64 parallel_src;
          j "p1024" Xmtsim.Config.chip1024 parallel_src;
        ])
      workloads
  in
  let rs = run_jobs specs in
  let bfs1024 = ref 0.0 in
  List.iteri
    (fun i (name, _, _, _, expected) ->
      let ser = rs.(3 * i)
      and p64 = rs.((3 * i) + 1)
      and p1024 = rs.((3 * i) + 2) in
      let expected = Option.value expected ~default:ser.Core.Toolchain.output in
      validate name expected ser.Core.Toolchain.output;
      validate name expected p64.Core.Toolchain.output;
      validate name expected p1024.Core.Toolchain.output;
      let sc = float_of_int ser.Core.Toolchain.cycles in
      let s64 = sc /. float_of_int p64.Core.Toolchain.cycles in
      let s1024 = sc /. float_of_int p1024.Core.Toolchain.cycles in
      if i = 0 then bfs1024 := s1024;
      Printf.printf "%-22s %12s %12s %12s %8.1fx %8.1fx\n%!" name
        (commas ser.Core.Toolchain.cycles)
        (commas p64.Core.Toolchain.cycles)
        (commas p1024.Core.Toolchain.cycles)
        s64 s1024)
    workloads;
  Printf.printf "\nshape checks:\n";
  check (!bfs1024 > 5.4) "BFS 1024-TCU speedup in/above the paper's 5.4x-73x band: %.1fx"
    !bfs1024
