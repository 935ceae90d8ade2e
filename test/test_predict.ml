(** Prediction mode: the reuse-profile harvest (stack distances,
    co-miss detection, per-block mixes), the analytical model's sanity
    envelope, the calibration artifact round trip and the
    campaign/schema integration. *)

module R = Xmtsim.Reuseprofile
module M = Predict.Model
module Cal = Predict.Calibrate
module C = Xmtsim.Config
module T = Core.Toolchain
module J = Obs.Json

(* a serial-block load at word [w], same vTCU throughout *)
let load rp addr =
  R.on_access rp ~master:false ~ro:false ~nb:false ~kind:`Load ~addr

let hist ~stream ~gran snap =
  let hs = List.assoc stream snap.R.p_streams in
  List.find (fun h -> h.R.h_granularity_words = gran) hs

(* ---- the LRU stack tracker, driven through the public hooks ---- *)

let stack_distances_exact () =
  (* sample_period 1 => every eligible reuse is measured; one word per
     line => word addresses are line ids *)
  let rp = R.create ~granularities:[ 1 ] ~depth:64 ~sample_period:1 () in
  (* four first touches: words 0..3 *)
  List.iter (fun w -> load rp (w * 4)) [ 0; 1; 2; 3 ];
  (* word 0 is now LRU at stack position 4 *)
  load rp 0;
  (* and immediately again: position 1 *)
  load rp 0;
  let h = hist ~stream:"tcu_rw" ~gran:1 (R.snapshot rp) in
  Tu.check_int "accesses" 6 h.R.h_accesses;
  Tu.check_int "first touches" 4 h.R.h_first_touch;
  Tu.check_int "measured reuses" 2 h.R.h_sampled;
  Tu.check_int "no co-misses (same vTCU)" 0 h.R.h_comiss;
  Tu.check_int "distance 1" 1 h.R.h_buckets.(0);
  (* distance 4 lands in the (2,4] bucket *)
  Tu.check_int "distance 4" 1 h.R.h_buckets.(2);
  Tu.check_int "nothing beyond depth" 0 h.R.h_beyond

let comiss_inside_window_only () =
  let rp =
    R.create ~granularities:[ 1 ] ~depth:64 ~sample_period:1 ~streams:4
      ~window:4 ()
  in
  R.enter_spawn rp ~pc:7 ~threads:3;
  (* thread on vTCU 0 installs the line *)
  R.on_thread rp;
  load rp 0;
  (* a sibling on vTCU 1 reuses it one access after the fill: on the
     real machine it parks on the in-flight fill => co-miss *)
  R.on_thread rp;
  load rp 0;
  (* push the line past the fill window with unrelated first touches *)
  List.iter (fun w -> load rp (w * 4)) [ 10; 11; 12; 13; 14; 15 ];
  (* a third sibling reuses it long after the fill: the line is
     resident by now, so this is an eligible (measured) reuse *)
  R.on_thread rp;
  load rp 0;
  let h = hist ~stream:"tcu_rw" ~gran:1 (R.snapshot rp) in
  Tu.check_int "one co-miss" 1 h.R.h_comiss;
  Tu.check_int "late cross-vTCU reuse measured" 1 h.R.h_sampled;
  Tu.check_int "first touches" 7 h.R.h_first_touch

let line_sampling_validated () =
  Tu.check_bool "line_sampling must be a power of two" true
    (match R.create ~line_sampling:3 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* sampled tracker stays unbiased in ratio: with rate 2 roughly half
     the distinct lines are tracked *)
  let rp = R.create ~granularities:[ 1 ] ~sample_period:1 ~line_sampling:2 () in
  for w = 0 to 1023 do
    load rp (w * 4)
  done;
  let h = hist ~stream:"tcu_rw" ~gran:1 (R.snapshot rp) in
  Tu.check_int "sampling rate recorded" 2 h.R.h_line_sampling;
  Tu.check_bool "about half the lines tracked" true
    (h.R.h_first_touch > 300 && h.R.h_first_touch < 700)

(* ---- a real kernel through Functional_mode.run ~profile ---- *)

let kernel_harvest () =
  let compiled = T.compile (Core.Kernels.vecadd ~n:256) in
  let rp = R.create () in
  ignore (Xmtsim.Functional_mode.run ~profile:rp compiled.T.image);
  let snap = R.snapshot rp in
  Tu.check_bool "instructions counted" true (snap.R.p_instructions > 0);
  Tu.check_bool "spawned" true (snap.R.p_spawns >= 1);
  (match snap.R.p_blocks with
  | serial :: rest ->
    Tu.check_int "serial block first" (-1) serial.R.pc;
    Tu.check_bool "has a parallel block" true (rest <> []);
    let par = List.hd rest in
    Tu.check_int "256 virtual threads" 256 par.R.threads;
    Tu.check_bool "parallel loads" true (par.R.loads > 0);
    Tu.check_bool "parallel stores" true (par.R.stores > 0)
  | [] -> Alcotest.fail "no blocks harvested");
  let h = hist ~stream:"tcu_rw" ~gran:1 snap in
  Tu.check_bool "compulsory misses seen" true (h.R.h_first_touch > 0);
  Tu.check_bool "tagged xmt.reuseprofile.v1" true
    (J.member "schema" (R.to_json snap) = Some (J.Str "xmt.reuseprofile.v1"))

(* ---- the analytical model's sanity envelope ---- *)

let harvest src =
  let compiled = T.compile src in
  let rp = R.create () in
  ignore (Xmtsim.Functional_mode.run ~profile:rp compiled.T.image);
  R.snapshot rp

let prediction_envelope () =
  let snap = harvest (Core.Kernels.par_mem ~threads:128 ~iters:8 ~n:4096) in
  let pred = M.predict ~config:C.fpga64 snap in
  Tu.check_bool "positive prediction" true (pred.M.predicted_cycles > 0);
  Tu.check_bool "error bars bracket" true
    (pred.M.lo <= pred.M.predicted_cycles
    && pred.M.predicted_cycles <= pred.M.hi);
  List.iter
    (fun (name, r) ->
      Tu.check_bool (name ^ " is a rate") true (r >= 0.0 && r <= 1.0))
    [
      ("hit_shared", pred.M.hit_shared);
      ("hit_ro", pred.M.hit_ro);
      ("hit_master", pred.M.hit_master);
    ];
  Tu.check_bool "contention inflates" true (pred.M.contention >= 1.0);
  let x = pred.M.components in
  List.iter
    (fun (name, v) ->
      Tu.check_bool (name ^ " nonnegative") true (v >= 0.0))
    [
      ("x_exec", x.M.x_exec);
      ("x_mem", x.M.x_mem);
      ("x_spawn", x.M.x_spawn);
      ("x_serial", x.M.x_serial);
    ]

let smaller_cache_predicts_slower () =
  (* the profile is config-independent: harvest once, evaluate two
     design points.  Shrinking the shared cache can only lose hits. *)
  let snap = harvest (Core.Kernels.par_mem ~threads:128 ~iters:8 ~n:4096) in
  let at cache_lines =
    M.predict ~config:{ C.fpga64 with C.cache_lines } snap
  in
  let small = at 8 and large = at 4096 in
  Tu.check_bool "small cache hits less" true
    (small.M.hit_shared <= large.M.hit_shared);
  Tu.check_bool "small cache predicted slower" true
    (small.M.predicted_cycles >= large.M.predicted_cycles)

(* ---- the xmt.calibration.v1 artifact ---- *)

let close name a b =
  Tu.check_bool name true (abs_float (a -. b) < 1e-6)

let calibration_roundtrip () =
  let snap = harvest (Core.Kernels.vecadd ~n:512) in
  let actual = (T.run_cycle ~config:C.fpga64 (T.compile (Core.Kernels.vecadd ~n:512))).T.cycles in
  let pt = Cal.point ~name:"vecadd_512" ~config:C.fpga64 snap ~actual_cycles:actual in
  let fitted = Cal.fit [ pt ] in
  let path = Filename.temp_file "xmtcal" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cal.save_file path fitted;
      let back = Cal.load_file path in
      close "c_exec survives" fitted.Cal.coeffs.M.c_exec back.Cal.coeffs.M.c_exec;
      close "c_mem survives" fitted.Cal.coeffs.M.c_mem back.Cal.coeffs.M.c_mem;
      close "c_spawn survives" fitted.Cal.coeffs.M.c_spawn back.Cal.coeffs.M.c_spawn;
      close "c_serial survives" fitted.Cal.coeffs.M.c_serial back.Cal.coeffs.M.c_serial;
      close "mae survives" fitted.Cal.mae_pct back.Cal.mae_pct;
      Tu.check_int "points survive" (List.length fitted.Cal.points)
        (List.length back.Cal.points))

let calibration_errors () =
  Tu.check_bool "empty corpus rejected" true
    (match Cal.fit [] with exception Cal.Calib_error _ -> true | _ -> false);
  Tu.check_bool "missing file rejected" true
    (match Cal.load_file "/nonexistent/calibration.json" with
    | exception Cal.Calib_error _ -> true
    | _ -> false);
  Tu.check_bool "wrong schema rejected" true
    (match Cal.of_json (J.Obj [ ("schema", J.Str "xmt.trace.v1") ]) with
    | exception Cal.Calib_error _ -> true
    | _ -> false);
  Tu.check_bool "missing schema rejected" true
    (match Cal.of_json (J.Obj []) with
    | exception Cal.Calib_error _ -> true
    | _ -> false)

(* ---- campaigns mixing predict and cycle jobs ---- *)

let mixed_specs () =
  List.concat_map
    (fun n ->
      [
        ( Printf.sprintf "cycle-%d" n,
          T.job ~name:(Printf.sprintf "cycle-%d" n) ~mode:T.Cycle
            ~config:C.tiny
            (Core.Kernels.vecadd ~n) );
        ( Printf.sprintf "predict-%d" n,
          T.job ~name:(Printf.sprintf "predict-%d" n) ~mode:T.Predict
            ~config:C.tiny
            (Core.Kernels.vecadd ~n) );
      ])
    [ 16; 24; 32 ]

let mixed_campaign_deterministic () =
  let specs = mixed_specs () in
  Tu.agree_campaign "cycle and predict jobs" specs;
  let serial = Campaign.run ~jobs:1 specs in
  Tu.check_int "all ok" (List.length specs) (Campaign.ok_count serial);
  (* every predict job carries an xmt.predict.v1 report; cycle jobs
     carry none *)
  Array.iter
    (fun r ->
      match r.Campaign.r_outcome with
      | Ok run ->
        let is_predict =
          String.length r.Campaign.r_name >= 7
          && String.sub r.Campaign.r_name 0 7 = "predict"
        in
        Tu.check_bool (r.Campaign.r_name ^ " predict report") is_predict
          (match run.T.predict with
          | Some j -> J.member "schema" j = Some (J.Str "xmt.predict.v1")
          | None -> false)
      | Error _ -> Alcotest.fail (r.Campaign.r_name ^ " failed"))
    serial

let missing_calibration_isolated () =
  let specs =
    [
      ("ok-cycle", T.job ~name:"ok-cycle" ~mode:T.Cycle ~config:C.tiny
         (Core.Kernels.vecadd ~n:16));
      ( "bad-predict",
        T.job ~name:"bad-predict" ~mode:T.Predict ~config:C.tiny
          ~calibration:"/nonexistent/calibration.json"
          (Core.Kernels.vecadd ~n:16) );
      ("ok-predict", T.job ~name:"ok-predict" ~mode:T.Predict ~config:C.tiny
         (Core.Kernels.vecadd ~n:16));
    ]
  in
  let rs = Campaign.run ~jobs:2 specs in
  Tu.check_int "two jobs survive" 2 (Campaign.ok_count rs);
  Tu.check_bool "cycle job ok" true (Result.is_ok rs.(0).Campaign.r_outcome);
  Tu.check_bool "predict job ok" true (Result.is_ok rs.(2).Campaign.r_outcome);
  match rs.(1).Campaign.r_outcome with
  | Error f ->
    Tu.check_bool "failure names the artifact" true
      (let hay = f.Campaign.f_exn in
       let needle = "calibration" in
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0)
  | Ok _ -> Alcotest.fail "missing calibration must fail the job"

(* ---- the schema registry rows ---- *)

let registry_rows () =
  List.iter
    (fun (kind, schema) ->
      Tu.check_bool (kind ^ " is an export kind") true
        (Obs.Schema.is_export_kind kind);
      Tu.check_bool (kind ^ " maps to " ^ schema) true
        (Obs.Schema.schema_of_kind kind = Some schema);
      Tu.check_bool (schema ^ " registered") true (Obs.Schema.is_schema schema))
    [ ("predict", "xmt.predict.v1"); ("reuseprofile", "xmt.reuseprofile.v1") ];
  Tu.check_bool "calibration schema registered" true
    (Obs.Schema.is_schema "xmt.calibration.v1")

let () =
  Alcotest.run "predict"
    [
      ( "reuse profile",
        [
          Tu.tc "stack distances exact" stack_distances_exact;
          Tu.tc "co-miss window" comiss_inside_window_only;
          Tu.tc "line sampling" line_sampling_validated;
          Tu.tc "kernel harvest" kernel_harvest;
        ] );
      ( "model",
        [
          Tu.tc "prediction envelope" prediction_envelope;
          Tu.tc "smaller cache predicts slower" smaller_cache_predicts_slower;
        ] );
      ( "calibration",
        [
          Tu.tc "artifact round trip" calibration_roundtrip;
          Tu.tc "errors" calibration_errors;
        ] );
      ( "campaign",
        [
          Tu.tc "mixed modes deterministic" mixed_campaign_deterministic;
          Tu.tc "missing calibration isolated" missing_calibration_isolated;
        ] );
      ( "schema registry", [ Tu.tc "rows" registry_rows ] );
    ]
