(** Prediction mode: analytical-model accuracy and speed against the
    cycle-accurate simulator.

    Two protocols:

    - {e accuracy}: every corpus workload runs twice on [fpga64] — once
      on the cycle-accurate machine (the ground truth) and once in
      predict mode (functional pass + reuse-profile harvest + analytical
      model).  The committed calibration ({!Predict.Calibrate.default})
      is scored against the ground truth — that MAE is what the bench
      checks, because it is the fit jobs actually use — and the corpus is also
      refit from scratch, with the fresh artifact written to
      [CALIBRATION_predict.json] so a model change can be recalibrated
      by copying the fitted coefficients into [Calibrate.default].
    - {e speed}: the mode's target scenario is design-space exploration,
      where the reuse profile is config-independent and is harvested
      {e once} per workload, then evaluated against every design point
      for microseconds each.  The speedup metric runs an 8-point
      [chip1024]-family sweep over two large workloads both ways:
      cycle-accurate simulates every (workload, config) pair; predict
      harvests each workload once (with the big-run harvest settings:
      line-granularity tracker, 1/8 spatial line sampling) and evaluates
      all 8 design points from it.

    The checkpoint-sampled mode is scored on the serial-heavy workload
    (windows land cleanly between the serialized instructions).  Fatal
    checks: MAE < 10%, sampled error < 5%, sweep speedup > 100x, and the
    corpus's cycle-accurate cycles equal their pinned sum. *)

open Bench_util

let corpus () =
  let mm_n = 16 in
  let mm_memmap =
    Isa.Memmap.of_floats
      [
        ("A", Core.Workloads.random_float_array ~seed:2 ~n:(mm_n * mm_n));
        ("B", Core.Workloads.random_float_array ~seed:3 ~n:(mm_n * mm_n));
      ]
  in
  let spmv_n = 512 and nnz_per_row = 8 in
  let row, col, nzv =
    Core.Workloads.random_csr_matrix ~seed:4 ~n:spmv_n ~nnz_per_row
  in
  let x = Core.Workloads.random_float_array ~seed:5 ~n:spmv_n in
  let spmv_memmap =
    Isa.Memmap.of_ints [ ("row", row); ("col", col) ]
    @ Isa.Memmap.of_floats [ ("nzv", nzv); ("x", x) ]
  in
  [
    ("vecadd_2048", Core.Kernels.vecadd ~n:2048, []);
    ("compaction_1024", Core.Kernels.compaction ~n:1024, []);
    ("reduce_psm_4096", Core.Kernels.reduce_psm ~n:4096, []);
    ("reduce_tree_2048", Core.Kernels.reduce_tree ~n:2048, []);
    ("matmul_16", Core.Kernels.matmul ~n:mm_n, mm_memmap);
    ( "spmv_512",
      Core.Kernels.spmv ~n:spmv_n ~nnz:(spmv_n * nnz_per_row),
      spmv_memmap );
    ("par_comp_512x24", Core.Kernels.par_comp ~threads:512 ~iters:24, []);
    ("par_mem_256x16", Core.Kernels.par_mem ~threads:256 ~iters:16 ~n:4096, []);
    ( "table_lookup_ro",
      Core.Kernels.table_lookup ~n:256 ~iters:8 ~use_ro:true,
      [] );
    ("ser_comp_2000", Core.Kernels.ser_comp ~iters:2000, []);
  ]

(* the design-space sweep of the speed protocol: a chip1024 family
   varying shared-cache size, DRAM latency and ICN depth *)
let sweep_configs () =
  let base = Xmtsim.Config.chip1024 in
  List.map
    (fun (name, cache_lines, dram_latency, icn_latency) ->
      {
        base with
        Xmtsim.Config.name;
        cache_lines;
        dram_latency;
        icn_latency;
      })
    [
      ("chip1024", base.Xmtsim.Config.cache_lines, base.Xmtsim.Config.dram_latency,
       base.Xmtsim.Config.icn_latency);
      ("chip1024-c256", 256, 100, 12);
      ("chip1024-d60", 512, 60, 12);
      ("chip1024-d150", 512, 150, 12);
      ("chip1024-i8", 512, 100, 8);
      ("chip1024-i16", 512, 100, 16);
      ("chip1024-c256-d60", 256, 60, 12);
      ("chip1024-c1024", 1024, 100, 12);
    ]

let sweep_workloads () =
  [
    ("vecadd_16384", Core.Kernels.vecadd ~n:16384);
    ("reduce_psm_65536", Core.Kernels.reduce_psm ~n:65536);
  ]

let run () =
  section "prediction mode: analytical model vs cycle-accurate simulation";
  let config = Xmtsim.Config.fpga64 in
  let cal = Predict.Calibrate.default in
  let rows =
    List.map
      (fun (name, src, memmap) ->
        let compiled = compile ~memmap src in
        let cyc, cyc_secs =
          wall (fun () -> Core.Toolchain.run_cycle ~config compiled)
        in
        (* the whole predict pipeline, as a job runs it: harvest pass
           plus model evaluation under the committed calibration *)
        let (snap, pred), pred_secs =
          wall (fun () ->
              let rp = Xmtsim.Reuseprofile.create () in
              ignore
                (Xmtsim.Functional_mode.run ~profile:rp
                   compiled.Core.Toolchain.image);
              let snap = Xmtsim.Reuseprofile.snapshot rp in
              let pred =
                Predict.Model.predict ~coeffs:cal.Predict.Calibrate.coeffs
                  ~residual_std_pct:cal.Predict.Calibrate.residual_std_pct
                  ~config snap
              in
              (snap, pred))
        in
        let pt =
          Predict.Calibrate.point ~name ~config snap
            ~actual_cycles:cyc.Core.Toolchain.cycles
        in
        (name, pt, cyc, pred, cyc_secs, pred_secs))
      (corpus ())
  in
  let points = List.map (fun (_, pt, _, _, _, _) -> pt) rows in
  (* the committed fit is what ships in jobs; its score is the gate *)
  let committed =
    Predict.Calibrate.summarize cal.Predict.Calibrate.coeffs points
  in
  let refit = Predict.Calibrate.fit points in
  Predict.Calibrate.save_file "CALIBRATION_predict.json" refit;
  Printf.printf "  [wrote CALIBRATION_predict.json]\n";
  Printf.printf "\n%-18s %12s %12s %8s %12s %12s\n" "workload" "actual"
    "predicted" "err" "cycle ms" "predict ms";
  List.iter
    (fun (name, pt, cyc, pred, cyc_secs, pred_secs) ->
      let err =
        List.assoc pt.Predict.Calibrate.pt_name
          committed.Predict.Calibrate.points
      in
      Printf.printf "%-18s %12s %12s %+7.1f%% %12.2f %12.3f\n" name
        (commas cyc.Core.Toolchain.cycles)
        (commas pred.Predict.Model.predicted_cycles)
        err (cyc_secs *. 1e3) (pred_secs *. 1e3))
    rows;
  let corpus_cyc_wall =
    List.fold_left (fun a (_, _, _, _, s, _) -> a +. s) 0.0 rows
  in
  let corpus_pred_wall =
    List.fold_left (fun a (_, _, _, _, _, s) -> a +. s) 0.0 rows
  in
  let corpus_speedup =
    if corpus_pred_wall > 0.0 then corpus_cyc_wall /. corpus_pred_wall else 0.0
  in
  Printf.printf
    "\ncommitted calibration: MAE %.2f%% (residual std %.2f%%); refit MAE \
     %.2f%%\n"
    committed.Predict.Calibrate.mae_pct
    committed.Predict.Calibrate.residual_std_pct
    refit.Predict.Calibrate.mae_pct;
  Printf.printf
    "corpus wall (one config): cycle %.2f s, predict %.3f s -> %.0fx per run\n%!"
    corpus_cyc_wall corpus_pred_wall corpus_speedup;
  (* ---- the design-space sweep: harvest once, predict every point ---- *)
  let configs = sweep_configs () in
  let sweep =
    List.map
      (fun (name, src) ->
        let compiled = compile src in
        let cyc_secs =
          List.fold_left
            (fun acc cfg ->
              let _, s =
                wall (fun () -> Core.Toolchain.run_cycle ~config:cfg compiled)
              in
              acc +. s)
            0.0 configs
        in
        let _, pred_secs =
          wall (fun () ->
              (* big-run harvest settings: line-granularity tracker,
                 1/8 spatial line sampling (SHARDS-style) *)
              let rp =
                Xmtsim.Reuseprofile.create ~granularities:[ 4 ]
                  ~line_sampling:8 ()
              in
              ignore
                (Xmtsim.Functional_mode.run ~profile:rp
                   compiled.Core.Toolchain.image);
              let snap = Xmtsim.Reuseprofile.snapshot rp in
              List.iter
                (fun cfg ->
                  ignore
                    (Predict.Model.predict ~coeffs:cal.Predict.Calibrate.coeffs
                       ~config:cfg snap))
                configs)
        in
        Printf.printf
          "sweep %-18s %d configs: cycle %.2f s, harvest+predict %.3f s -> \
           %.0fx\n%!"
          name (List.length configs) cyc_secs pred_secs (cyc_secs /. pred_secs);
        (cyc_secs, pred_secs))
      (sweep_workloads ())
  in
  let sweep_cyc = List.fold_left (fun a (c, _) -> a +. c) 0.0 sweep in
  let sweep_pred = List.fold_left (fun a (_, p) -> a +. p) 0.0 sweep in
  let speedup = if sweep_pred > 0.0 then sweep_cyc /. sweep_pred else 0.0 in
  Printf.printf
    "sweep total: cycle %.2f s, predict %.3f s -> %.0fx amortized\n%!"
    sweep_cyc sweep_pred speedup;
  (* checkpoint-sampled mode on the serial-heavy workload: windows land
     between serialized instructions, so measured spans match requests *)
  let ser = compile (Core.Kernels.ser_mem ~iters:4000 ~n:4096) in
  let ser_actual = cycles_of ~config ser in
  let sp =
    Predict.Sampled.estimate ~config ~interval:20_000 ~num_windows:4
      ser.Core.Toolchain.image
  in
  let sampled_err =
    abs_float
      (float_of_int (sp.Predict.Sampled.sp_cycles - ser_actual)
      /. float_of_int ser_actual)
    *. 100.0
  in
  Printf.printf
    "sampled (ser_mem): actual %s, blended %s (%.2f%% err; %d/%d windows, \
     %s of %s instructions measured)\n%!"
    (commas ser_actual)
    (commas sp.Predict.Sampled.sp_cycles)
    sampled_err sp.Predict.Sampled.sp_windows_landed
    sp.Predict.Sampled.sp_windows_requested
    (commas sp.Predict.Sampled.sp_measured_instructions)
    (commas sp.Predict.Sampled.sp_total_instructions);
  let total_cycles =
    List.fold_left (fun a (_, _, c, _, _, _) -> a + c.Core.Toolchain.cycles) 0 rows
  in
  let mae = committed.Predict.Calibrate.mae_pct in
  check (mae < 10.0) "committed calibration MAE %.2f%% < 10%%" mae;
  check (sampled_err < 5.0) "sampled error %.2f%% < 5%%" sampled_err;
  check (speedup > 100.0) "sweep speedup %.0fx > 100x" speedup;
  pinned (Printf.sprintf "corpus (%d workloads)" (List.length rows))
    ~expect:117_277 total_cycles
