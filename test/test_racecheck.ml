(** The race & memory-model checker: static spawn-block analysis,
    fence-placement diffing and the dynamic shadow-memory detector. *)

open Tu

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let fixture name = read_file (example name)

let analyze ?options src =
  let compiled = Core.Toolchain.compile ?options src in
  Racecheck.analyze compiled.Core.Toolchain.cc

let codes findings = List.map (fun f -> f.Racecheck.Diag.code) findings
let has_code c findings = List.mem c (codes findings)

let no_fences =
  { Compiler.Driver.default_options with Compiler.Driver.fences = false }

(* ------------------------------------------------------------------ *)
(* static layer: true positives on the known-racy fixtures            *)

let static_accumulator () =
  let findings = analyze (fixture "racy_accumulator.xmtc") in
  check_bool "read-write flagged" true
    (has_code "unmediated-read-write" findings);
  check_bool "write-write flagged" true
    (has_code "unmediated-write-write" findings);
  check_int "both are errors" 2 (Racecheck.Diag.error_count findings);
  List.iter
    (fun f -> check_bool "evidence names sum" true (f.Racecheck.Diag.vars = [ "sum" ]))
    findings

let static_overlap () =
  let findings = analyze (fixture "racy_overlap.xmtc") in
  check_bool "read-write flagged" true
    (has_code "unmediated-read-write" findings);
  (* A[$] = A[$+1] + 1: a thread writes only its own element, so there
     is no write-write pair — precision, not just recall *)
  check_bool "no write-write" false (has_code "unmediated-write-write" findings);
  check_int "one error" 1 (Racecheck.Diag.error_count findings)

(* true negatives: the clean corpus produces zero findings *)
let static_clean () =
  List.iter
    (fun (name, src) ->
      check_int (name ^ " is clean") 0 (List.length (analyze src)))
    [
      ("vecadd fixture", fixture "clean_vecadd.xmtc");
      ("compaction fixture", fixture "clean_compaction.xmtc");
      ("vecadd kernel", Core.Kernels.vecadd ~n:64);
      ("compaction kernel", Core.Kernels.compaction ~n:64);
      ("reduce_psm kernel", Core.Kernels.reduce_psm ~n:64);
    ]

(* the publication fixture: mediated by psm, but the $/2 pair index is
   beyond the affine analysis, so the static layer warns (never errors) *)
let static_publication_warns () =
  let findings = analyze (fixture "publication.xmtc") in
  check_int "no errors" 0 (Racecheck.Diag.error_count findings)

(* Fig. 8: without outlining, spawn-block writes to a master-broadcast
   value are lost at join — a broadcast-write error *)
let static_broadcast () =
  let src = Core.Kernels.fig8_found ~n:64 in
  let raw =
    analyze
      ~options:
        { Compiler.Driver.default_options with Compiler.Driver.outline = false }
      src
  in
  check_bool "no-outline flags broadcast write" true
    (has_code "broadcast-write" raw);
  check_bool "outlining repairs it" false
    (has_code "broadcast-write" (analyze src))

(* fence-placement diff (Fig. 7): the compiler's own output is
   consistent with the Memfence discipline; compiled with fences off,
   the checker reports the missing fences before prefix-sums *)
let static_fence_diff () =
  let src = Core.Kernels.compaction ~n:64 in
  check_bool "fenced compile has no fence findings" false
    (has_code "missing-fence" (analyze src));
  check_bool "fences off -> missing-fence" true
    (has_code "missing-fence" (analyze ~options:no_fences src))

(* findings are rendered and ordered deterministically *)
let static_deterministic () =
  let render fs = String.concat "\n" (List.map Racecheck.Diag.render fs) in
  let a = render (analyze (fixture "racy_accumulator.xmtc")) in
  let b = render (analyze (fixture "racy_accumulator.xmtc")) in
  check_string "same source, same report" a b

(* ------------------------------------------------------------------ *)
(* dynamic layer                                                      *)

let run_with_rc ?options ?(config = Xmtsim.Config.fpga64) ?(gating = true) src =
  let compiled = Core.Toolchain.compile ?options src in
  let m = Xmtsim.Machine.create ~config compiled.Core.Toolchain.image in
  Xmtsim.Machine.set_gating m gating;
  let rd = Xmtsim.Racedetect.attach m in
  let r = Xmtsim.Machine.run m in
  (r, rd, compiled)

let seeded seed =
  Xmtsim.Config.with_overrides Xmtsim.Config.fpga64
    [ Printf.sprintf "seed=%d" seed; "icn_jitter=4" ]

let dynamic_accumulator () =
  let _, rd, compiled = run_with_rc (fixture "racy_accumulator.xmtc") in
  let sum_addr = Isa.Program.address_of compiled.Core.Toolchain.image "sum" in
  let races = Xmtsim.Racedetect.races rd in
  check_bool "races detected" true (races <> []);
  List.iter
    (fun (rc : Xmtsim.Racedetect.race) ->
      check_int "race is on sum" sum_addr rc.Xmtsim.Racedetect.r_addr;
      check_int "inside the spawn epoch" 1 rc.Xmtsim.Racedetect.r_epoch)
    races;
  check_bool "kinds cover read-write and write-write" true
    (List.exists (fun r -> r.Xmtsim.Racedetect.r_kind = "read-write") races
    && List.exists (fun r -> r.Xmtsim.Racedetect.r_kind = "write-write") races)

(* static evidence (variable A) and dynamic evidence (addresses) agree *)
let dynamic_overlap_matches_static () =
  let src = fixture "racy_overlap.xmtc" in
  let _, rd, compiled = run_with_rc src in
  let base = Isa.Program.address_of compiled.Core.Toolchain.image "A" in
  let races = Xmtsim.Racedetect.races rd in
  check_bool "races detected" true (races <> []);
  List.iter
    (fun (rc : Xmtsim.Racedetect.race) ->
      check_bool "address falls inside A" true
        (rc.Xmtsim.Racedetect.r_addr >= base
        && rc.Xmtsim.Racedetect.r_addr < base + (4 * 65));
      check_int "same epoch as the spawn" 1 rc.Xmtsim.Racedetect.r_epoch)
    races;
  let static = analyze src in
  check_bool "static evidence names A" true
    (List.exists (fun f -> f.Racecheck.Diag.vars = [ "A" ]) static)

(* clock gating never changes the report *)
let dynamic_gating_invariant () =
  let report rd = Obs.Json.to_string (Xmtsim.Racedetect.to_json rd) in
  let _, on, _ = run_with_rc ~gating:true (fixture "racy_overlap.xmtc") in
  let _, off, _ = run_with_rc ~gating:false (fixture "racy_overlap.xmtc") in
  check_string "gated = ungated" (report on) (report off)

(* clean program: zero dynamic findings *)
let dynamic_clean () =
  let _, rd, _ = run_with_rc (Core.Kernels.compaction ~n:64) in
  check_int "compaction is race-free" 0 (Xmtsim.Racedetect.race_count rd);
  check_bool "but accesses were observed" true (Xmtsim.Racedetect.events rd > 0)

(* the headline flip: the publication program is dynamically race-free
   as compiled, and racy when the Fig. 7 fences are disabled *)
let dynamic_fence_flip () =
  let pub = Core.Kernels.publication ~n:128 in
  List.iter
    (fun seed ->
      let _, fenced, _ = run_with_rc ~config:(seeded seed) pub in
      check_int
        (Printf.sprintf "fenced publication clean (seed %d)" seed)
        0
        (Xmtsim.Racedetect.race_count fenced))
    [ 1; 2; 3 ];
  let r, unfenced, _ =
    run_with_rc ~options:no_fences ~config:(seeded 1) pub
  in
  ignore r;
  check_bool "no fences -> detected" true
    (Xmtsim.Racedetect.race_count unfenced > 0)

(* detaching restores the zero-overhead configuration *)
let dynamic_detach () =
  let compiled = Core.Toolchain.compile (Core.Kernels.vecadd ~n:16) in
  let m =
    Xmtsim.Machine.create ~config:Xmtsim.Config.tiny
      compiled.Core.Toolchain.image
  in
  let rd = Xmtsim.Racedetect.create () in
  let detach = Xmtsim.Machine.attach m (Xmtsim.Racedetect.probe m rd) in
  check_bool "probe attached" true (Xmtsim.Machine.probes m = [ "racecheck" ]);
  detach ();
  check_bool "detached" true (Xmtsim.Machine.probes m = []);
  let r = Xmtsim.Machine.run m in
  check_bool "run unaffected" true r.Xmtsim.Machine.halted;
  check_int "detector saw nothing" 0 (Xmtsim.Racedetect.events rd)

(* every memory-touching package event carries (address, tcu, pc) *)
let package_events_carry_pc () =
  let compiled = Core.Toolchain.compile (Core.Kernels.vecadd ~n:16) in
  let m =
    Xmtsim.Machine.create ~config:Xmtsim.Config.tiny
      compiled.Core.Toolchain.image
  in
  let attributed = ref 0 and total = ref 0 in
  let package ~stage:_ ~kind:_ ~addr:_ ~tcu:_ ~pc ~module_:_ =
    incr total;
    check_bool "pc is -1 or a real pc" true (pc >= -1);
    if pc >= 0 then incr attributed
  in
  ignore (Xmtsim.Machine.attach m { Xmtsim.Probe.nop with package } : unit -> unit);
  ignore (Xmtsim.Machine.run m);
  check_bool "events flowed" true (!total > 0);
  check_bool "most events attribute a pc" true (!attributed > 0)

(* ------------------------------------------------------------------ *)
(* toolchain + campaign surfaces                                      *)

let toolchain_report () =
  let compiled = Core.Toolchain.compile (fixture "racy_accumulator.xmtc") in
  let r = Core.Toolchain.run_cycle ~racecheck:true compiled in
  (match r.Core.Toolchain.races with
  | Some (Obs.Json.Obj fields) ->
    check_bool "schema tag" true
      (List.assoc_opt "schema" fields = Some (Obs.Json.Str "xmt.races.v1"));
    (match List.assoc_opt "dynamic" fields with
    | Some (Obs.Json.Obj dyn) ->
      check_bool "dynamic races listed" true
        (match List.assoc_opt "races" dyn with
        | Some (Obs.Json.List (_ :: _)) -> true
        | _ -> false)
    | _ -> Alcotest.fail "dynamic member missing")
  | _ -> Alcotest.fail "races report missing");
  let off = Core.Toolchain.run_cycle compiled in
  check_bool "off by default" true (off.Core.Toolchain.races = None);
  let f = Core.Toolchain.run_functional ~racecheck:true compiled in
  match f.Core.Toolchain.races with
  | Some (Obs.Json.Obj fields) ->
    check_bool "functional report is static-only" true
      (List.assoc_opt "dynamic" fields = Some Obs.Json.Null)
  | _ -> Alcotest.fail "functional races report missing"

(* the dynamic report is identical from serial and parallel campaigns
   (the oracle's campaign variant) *)
let campaign_deterministic () =
  let jobs =
    [
      ( "acc",
        Core.Toolchain.job ~name:"acc" ~racecheck:true
          (fixture "racy_accumulator.xmtc") );
      ( "overlap",
        Core.Toolchain.job ~name:"overlap" ~racecheck:true
          (fixture "racy_overlap.xmtc") );
      ( "pub-nofence",
        Core.Toolchain.job ~name:"pub-nofence" ~racecheck:true
          ~options:no_fences ~config:(seeded 1)
          (Core.Kernels.publication ~n:64) );
      ( "clean",
        Core.Toolchain.job ~name:"clean" ~racecheck:true
          (Core.Kernels.vecadd ~n:32) );
    ]
  in
  agree_campaign "race-checked jobs" jobs;
  let serial, _ = campaign ~jobs:1 jobs in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "reports carry races" true (contains serial "\"races\"")

let () =
  Alcotest.run "racecheck"
    [
      ( "static",
        [
          tc "accumulator flagged" static_accumulator;
          tc "overlap flagged" static_overlap;
          tc "clean corpus quiet" static_clean;
          tc "publication never errors" static_publication_warns;
          tc "broadcast write (Fig. 8)" static_broadcast;
          tc "fence diff (Fig. 7)" static_fence_diff;
          tc "deterministic report" static_deterministic;
        ] );
      ( "dynamic",
        [
          tc "accumulator races on sum" dynamic_accumulator;
          tc "overlap matches static evidence" dynamic_overlap_matches_static;
          tc "gating-invariant report" dynamic_gating_invariant;
          tc "clean program quiet" dynamic_clean;
          tc "fence flip on publication" dynamic_fence_flip;
          tc "detach restores no-overhead" dynamic_detach;
          tc "package events carry pc" package_events_carry_pc;
        ] );
      ( "surfaces",
        [
          tc "toolchain report" toolchain_report;
          tc "campaign determinism" campaign_deterministic;
        ] );
    ]
