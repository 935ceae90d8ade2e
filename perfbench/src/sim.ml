(** Calls into the simulator and predict layers shared by the workloads,
    and the exact counts read from their results. *)

(** Harvest pass of predict mode ([Functional_mode.run ~profile]) and
    the model evaluation ([Predict.Model.predict]), timed separately —
    the two halves of [Core.Toolchain.run_predict]. *)
let harvest ?(parent = 0) ~on ~req (c : Core.Toolchain.compiled) =
  let (r, snap), secs =
    Host.timed (fun () ->
        Span.with_span ~parent ~on ~req "predict.harvest" (fun _ ->
            let rp = Xmtsim.Reuseprofile.create () in
            let r = Xmtsim.Functional_mode.run ~profile:rp c.Core.Toolchain.image in
            (r, Xmtsim.Reuseprofile.snapshot rp)))
  in
  (r, snap, secs *. 1e3)

let model ?(parent = 0) ~on ~req ~config snap =
  let cal = Predict.Calibrate.default in
  let p, secs =
    Host.timed (fun () ->
        Span.with_span ~parent ~on ~req "predict.model" (fun _ ->
            Predict.Model.predict ~coeffs:cal.Predict.Calibrate.coeffs
              ~residual_std_pct:cal.Predict.Calibrate.residual_std_pct ~config snap))
  in
  (p.Predict.Model.predicted_cycles, secs *. 1e3)

let abs_err_pct ~predicted ~cycles =
  100.0 *. Float.abs (float_of_int (predicted - cycles)) /. float_of_int cycles

(** Machine-model counts summed over the runs of one pass. *)
let record_stats (stats : Xmtsim.Stats.t list) =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let open Xmtsim.Stats in
  Ledger.set "xmtsim.cache_hit_ratio"
    (ratio (sum (fun s -> s.cache_hits)) (sum (fun s -> s.cache_misses)));
  Ledger.set "xmtsim.rocache_hit_ratio"
    (ratio (sum (fun s -> s.rocache_hits)) (sum (fun s -> s.rocache_misses)));
  Ledger.seti "xmtsim.icn_packets" (sum (fun s -> s.icn_packets));
  Ledger.seti "xmtsim.dram_reads" (sum (fun s -> s.dram_reads));
  Ledger.set "xmtsim.tcu_memwait_frac"
    (ratio (sum (fun s -> s.tcu_memwait_cycles)) (sum (fun s -> s.tcu_busy_cycles)))

(** [desim.events] and [desim.events_per_cycle] over one pass. *)
let record_events ~events ~cycles =
  Ledger.seti "desim.events" events;
  Ledger.set "desim.events_per_cycle" (float_of_int events /. float_of_int cycles)

(** Words allocated on the calling domain so far (minor plus direct
    major allocations). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(** Deterministic inputs: [n] values in [1, 1000) from [seed].  Values
    only, never sizes or control flow, so simulated cycles do not
    depend on the seed. *)
let inputs ~seed ~n =
  Array.map (fun v -> v + 1) (Core.Workloads.random_array ~seed ~n ~bound:999)
