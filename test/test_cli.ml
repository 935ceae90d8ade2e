(** End-to-end tests of the installed CLI surfaces: flag validation and
    the [-] (stdout) convention of the JSON sinks.  These spawn the real
    executables, so they cover the argument wiring the library-level
    tests cannot. *)

module J = Obs.Json

(* resolve the binaries relative to this test executable so the tests
   work both under `dune runtest` (cwd = _build/default/test) and, once
   `dune build` has built them, `dune exec` (cwd = project root);
   examples resolve through {!Tu.example} *)
let bin name =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" name))

let xmtsim = bin "xmtsim_cli.exe"
let xmtcc = bin "xmtcc.exe"

(* a program with no program output, so stdout can carry pure JSON *)
let quiet_src = "int A[8]; int main(void) { spawn(0, 7) { A[$] = $; } return 0; }"

let with_src f =
  let path = Filename.temp_file "xmtcli" ".c" in
  let oc = open_out path in
  output_string oc quiet_src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let with_temp ext f =
  let p = Filename.temp_file "xmtcli" ext in
  Fun.protect ~finally:(fun () -> if Sys.file_exists p then Sys.remove p) (fun () -> f p)

(** Run [argv] (from directory [cwd], if given), returning (exit code,
    stdout, stderr). *)
let run_cmd ?cwd args =
  let out = Filename.temp_file "xmtcli" ".out"
  and err = Filename.temp_file "xmtcli" ".err" in
  let cmd =
    Printf.sprintf "%s%s > %s 2> %s"
      (match cwd with Some d -> "cd " ^ Filename.quote d ^ " && " | None -> "")
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let read p =
    let ic = open_in p in
    Fun.protect
      ~finally:(fun () -> close_in ic; Sys.remove p)
      (fun () -> In_channel.input_all ic)
  in
  (code, read out, read err)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let functional_trace_json_rejected () =
  with_src (fun src ->
      let code, _, err =
        run_cmd [ xmtsim; src; "--functional"; "--export"; "trace=t.json" ]
      in
      Tu.check_int "nonzero exit" 2 code;
      Tu.check_bool "explains the fix" true
        (let has needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         has "cycle-accurate" err && has "--functional" err);
      Tu.check_bool "no file written" false (Sys.file_exists "t.json");
      (* the removed timeseries kind fails before any mode check,
         pointing at the stream that replaced it *)
      let code, _, err =
        run_cmd [ xmtsim; src; "--functional"; "--export"; "timeseries=t.json" ]
      in
      Tu.check_int "timeseries rejected" 124 code;
      Tu.check_bool "names --stream" true (contains "--stream" err);
      Tu.check_bool "no timeseries file" false (Sys.file_exists "t.json");
      let code, _, _ = run_cmd [ xmtsim; src; "--functional"; "--governor" ] in
      Tu.check_int "governor rejected" 2 code)

let stats_json_to_stdout () =
  with_src (fun src ->
      let code, out, _ =
        run_cmd [ xmtsim; src; "--export"; "stats=-"; "--governor" ]
      in
      Tu.check_int "exit 0" 0 code;
      let j = J.of_string out in
      Tu.check_bool "schema v2" true
        (J.member "schema" j = Some (J.Str "xmt.metrics.v2"));
      Tu.check_bool "has metrics" true
        (match J.member "metrics" j with Some (J.List (_ :: _)) -> true | _ -> false);
      Tu.check_bool "governor section rides along" true
        (match J.member "governor" j with
        | Some (J.Obj fields) -> List.mem_assoc "decisions" fields
        | _ -> false))

let trace_and_timeseries_to_stdout () =
  with_src (fun src ->
      let code, out, _ = run_cmd [ xmtsim; src; "--export"; "trace=-" ] in
      Tu.check_int "trace exit 0" 0 code;
      Tu.check_bool "trace is a json array" true
        (match J.of_string out with J.List (_ :: _) -> true | _ -> false);
      (* the timeseries export is gone: fail fast, naming --stream *)
      let code, out, err = run_cmd [ xmtsim; src; "--export"; "timeseries=-" ] in
      Tu.check_int "timeseries exits 124" 124 code;
      Tu.check_string "nothing on stdout" "" out;
      Tu.check_bool "names --stream" true (contains "--stream" err))

let timings_json_to_stdout () =
  with_src (fun src ->
      let code, out, _ = run_cmd [ xmtcc; src; "--timings-json"; "-" ] in
      Tu.check_int "exit 0" 0 code;
      let j = J.of_string out in
      Tu.check_bool "timings schema" true
        (J.member "schema" j = Some (J.Str "xmt.timings.v1")))

let functional_stats_json_still_works () =
  (* the stats export stays available in functional mode (envelope with
     the functional counters), including to stdout *)
  with_src (fun src ->
      let code, out, _ =
        run_cmd [ xmtsim; src; "--functional"; "--export"; "stats=-" ]
      in
      Tu.check_int "exit 0" 0 code;
      let j = J.of_string out in
      Tu.check_bool "schema v2" true
        (J.member "schema" j = Some (J.Str "xmt.metrics.v2")))

let export_flag_to_stdout () =
  with_src (fun src ->
      let code, out, err = run_cmd [ xmtsim; src; "--export"; "stats=-" ] in
      Tu.check_int "exit 0" 0 code;
      Tu.check_bool "no deprecation warning" false (contains "deprecated" err);
      let j = J.of_string out in
      Tu.check_bool "schema v2" true
        (J.member "schema" j = Some (J.Str "xmt.metrics.v2")))

let removed_alias_errors () =
  (* the PR-4-deprecated one-flag-per-sink aliases are gone: each fails
     fast (cmdliner's CLI-error code) naming the --export replacement *)
  with_src (fun src ->
      List.iter
        (fun (args, replacement) ->
          let code, _, err = run_cmd ((xmtsim :: src :: args)) in
          Tu.check_int (String.concat " " args ^ " exits 124") 124 code;
          Tu.check_bool "names the replacement" true (contains replacement err))
        [
          ([ "--stats-json"; "s.json" ], "--export stats");
          ([ "--trace-json=t.json" ], "--export trace");
          ([ "--timeseries-json"; "-" ], "--stream");
        ];
      Tu.check_bool "no alias file written" false (Sys.file_exists "s.json"))


(* CI's campaign: jobs that vary the seed, config overrides and the mode *)
let with_campaign_file f =
  let src = "int A[32]; int main(void) { spawn(0, 31) { A[$] = $ * $; } return 0; }" in
  let job name extra = J.Obj ([ ("name", J.Str name); ("inline", J.Str src) ] @ extra) in
  let set kv = ("set", J.List [ J.Str kv ]) in
  let path = Filename.temp_file "xmtcli" ".json" in
  J.write_file path
    (J.Obj
       [
         ("schema", J.Str "xmt.campaign.v1");
         ("defaults", J.Obj [ ("preset", J.Str "tiny") ]);
         ( "jobs",
           J.List
             [ job "c1" []; job "c2" [ ("seed", J.Int 7) ]; job "c3" [ set "dram_latency=40" ];
               job "c4" [ ("mode", J.Str "functional") ]; job "c5" [ set "icn_latency=8" ];
               job "c6" [ set "num_cache_modules=4" ] ] );
       ]);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* The deterministic report is byte-identical on 1, 2 and 4 workers. *)
let campaign_runs_and_is_deterministic () =
  with_campaign_file (fun spec ->
      let run jobs =
        let code, out, _ =
          run_cmd [ xmtsim; "--campaign"; spec; "--jobs"; jobs; "--export"; "campaign-det=-" ]
        in
        Tu.check_int ("--jobs " ^ jobs ^ " exits 0") 0 code;
        out
      in
      let serial = run "1" in
      List.iter
        (fun jobs -> Tu.check_string ("--jobs " ^ jobs ^ " byte-identical") serial (run jobs))
        [ "2"; "4" ];
      let j = J.of_string serial in
      Tu.check_bool "campaign schema" true
        (J.member "schema" j = Some (J.Str "xmt.campaign.v1"));
      Tu.check_bool "six jobs" true (J.member "jobs" j = Some (J.Int 6));
      Tu.check_bool "six results" true
        (match J.member "results" j with
        | Some (J.List l) -> List.length l = 6
        | _ -> false))

let campaign_failure_sets_exit_code () =
  let path = Filename.temp_file "xmtcli" ".json" in
  J.write_file path
    (J.Obj
       [
         ("schema", J.Str "xmt.campaign.v1");
         ( "jobs",
           J.List
             [
               J.Obj
                 [ ("name", J.Str "ok"); ("inline", J.Str quiet_src);
                   ("preset", J.Str "tiny") ];
               J.Obj
                 [ ("name", J.Str "broken"); ("inline", J.Str "syntax error {");
                   ("preset", J.Str "tiny") ];
             ] );
       ]);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, _, err =
        run_cmd [ xmtsim; "--campaign"; path; "--export"; "campaign=-" ]
      in
      Tu.check_int "failure propagates to exit code" 1 code;
      Tu.check_bool "summary names the failure" true (contains "broken" err))

let campaign_exec_block () =
  (* the spec file's exec block supplies jobs/retries when the flags are
     absent; an invalid one is rejected like any other spec error *)
  with_campaign_file (fun spec ->
      let j = J.of_string (In_channel.with_open_text spec In_channel.input_all) in
      let with_exec exec =
        match j with
        | J.Obj kvs -> J.Obj (kvs @ [ ("exec", exec) ])
        | _ -> assert false
      in
      let path = Filename.temp_file "xmtcli" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          J.write_file path
            (with_exec (J.Obj [ ("jobs", J.Int 2); ("retries", J.Int 1) ]));
          let code, out, _ =
            run_cmd
              [ xmtsim; "--campaign"; path; "--export"; "campaign-det=-" ]
          in
          Tu.check_int "exec-driven run exits 0" 0 code;
          Tu.check_bool "campaign schema" true
            (J.member "schema" (J.of_string out)
            = Some (J.Str "xmt.campaign.v1"));
          J.write_file path (with_exec (J.Obj [ ("jobs", J.Int 0) ]));
          let code, _, err =
            run_cmd [ xmtsim; "--campaign"; path; "--export"; "campaign=-" ]
          in
          Tu.check_int "bad exec rejected" 1 code;
          Tu.check_bool "names the constraint" true (contains "jobs" err)))

(* ---- predict mode and the schema-registry-backed kind listing ---- *)

let unknown_export_kind_lists_registry () =
  with_src (fun src ->
      let code, _, err =
        run_cmd [ xmtsim; src; "--export"; "bogus=x.json" ]
      in
      Tu.check_int "cmdliner CLI-error code" 124 code;
      Tu.check_bool "names the bad kind" true (contains "bogus" err);
      (* the suggestion list is derived from the schema registry, so
         every registered kind must appear — the listing cannot drift *)
      List.iter
        (fun kind ->
          Tu.check_bool (kind ^ " listed") true (contains kind err))
        Obs.Schema.export_kinds;
      Tu.check_bool "no file written" false (Sys.file_exists "x.json"))

let predict_mode_exports () =
  with_src (fun src ->
      let code, out, _ =
        run_cmd
          [ xmtsim; src; "--mode"; "predict"; "--export"; "predict=-" ]
      in
      Tu.check_int "exit 0" 0 code;
      let j = J.of_string out in
      Tu.check_bool "xmt.predict.v1" true
        (J.member "schema" j = Some (J.Str "xmt.predict.v1"));
      Tu.check_bool "has predicted_cycles" true
        (match J.member "predicted_cycles" j with
        | Some (J.Int n) -> n > 0
        | _ -> false))

let predict_exports_need_predict_mode () =
  with_src (fun src ->
      List.iter
        (fun kind ->
          let code, _, err =
            run_cmd [ xmtsim; src; "--export"; kind ^ "=-" ]
          in
          Tu.check_int (kind ^ " rejected") 1 code;
          Tu.check_bool "names --mode predict" true
            (contains "--mode predict" err))
        [ "predict"; "reuseprofile" ];
      (* the flag's converter checks the file exists, so hand it one *)
      let cal = Filename.temp_file "xmtcli" ".json" in
      let code, _, err =
        Fun.protect
          ~finally:(fun () -> Sys.remove cal)
          (fun () -> run_cmd [ xmtsim; src; "--calibration"; cal ])
      in
      Tu.check_int "--calibration rejected" 1 code;
      Tu.check_bool "names --mode predict" true
        (contains "--mode predict" err))

let attach_needs_connect () =
  let code, _, err = run_cmd [ xmtsim; "--attach"; "c1" ] in
  Tu.check_int "exit 1" 1 code;
  Tu.check_bool "names --connect" true (contains "--connect" err)

let connect_refused_exits_3 () =
  with_campaign_file (fun spec ->
      let code, _, err =
        run_cmd
          [ xmtsim; "--connect"; "/nonexistent/xmtserved.sock";
            "--campaign"; spec ]
      in
      Tu.check_int "exit 3" 3 code;
      Tu.check_bool "mentions xmtserved" true (contains "xmtserved" err))

(* ---- one flag table: a flag given where it does not apply is rejected ---- *)

(* exit 1 with one "xmtsim: ..." line naming [what] *)
let check_rejected what (code, _, err) =
  Tu.check_int (what ^ " exits 1") 1 code;
  Tu.check_bool (what ^ ": one xmtsim: line naming it") true
    (String.starts_with ~prefix:"xmtsim: " err
    && List.length (String.split_on_char '\n' (String.trim err)) = 1
    && contains what err)

let campaign_rejects_single_run_flags () =
  with_src (fun src ->
  with_campaign_file (fun spec ->
      List.iter
        (fun (what, args) -> check_rejected what (run_cmd ([ xmtsim; "--campaign"; spec ] @ args)))
        [
          ("--trace", [ "--trace" ]);
          ("--stats", [ "--stats" ]);
          ("--governor", [ "--governor" ]);
          ("-c", [ "-c"; "chip1024" ]);
          ("--set", [ "--set"; "dram_latency=1" ]);
          ("--racecheck", [ "--racecheck" ]);
          ("--heartbeat-cycles", [ "--heartbeat-cycles"; "5" ]);
          ("--functional", [ "--functional" ]);
          (src, [ src ]);
        ]))

let single_run_rejects_campaign_flags () =
  with_src (fun src ->
      List.iter
        (fun (what, args) -> check_rejected what (run_cmd ([ xmtsim; src ] @ args)))
        [ ("--jobs", [ "--jobs"; "2" ]); ("--retries", [ "--retries"; "1" ]) ])

(* checked before connecting: exit 1, not the lost-connection 3 *)
let connect_rejects_in_process_flags () =
  with_campaign_file (fun spec ->
      List.iter
        (fun (what, args) ->
          check_rejected what
            (run_cmd ([ xmtsim; "--connect"; "/nonexistent.sock"; "--campaign"; spec ] @ args)))
        [ ("--jobs", [ "--jobs"; "2" ]); ("--export campaign", [ "--export"; "campaign=x.json" ]) ])

(* Probe event order, pinned: the text traces and the CPI-stack report of
   a fixed example must match the committed golden files byte for byte. *)
let read_file p = In_channel.with_open_bin p In_channel.input_all

let golden_traces () =
  let src = Tu.example "clean_compaction.xmtc" in
  let code, out, _ =
    run_cmd
      [ xmtsim; src; "-c"; "tiny"; "--trace"; "--trace-packages";
        "--trace-limit"; "0" ]
  in
  Tu.check_int "trace run exits 0" 0 code;
  Tu.check_string "text traces match golden"
    (read_file (Tu.example "golden/clean_compaction.trace.txt")) out;
  let prof = Filename.temp_file "xmtcli" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove prof)
    (fun () ->
      let code, out, _ =
        run_cmd [ xmtsim; src; "-c"; "tiny"; "--profile"; "--export"; "profile=" ^ prof ]
      in
      Tu.check_int "profile run exits 0" 0 code;
      Tu.check_bool "--profile prints the CPI stacks" true (contains "CPI stacks" out);
      Tu.check_string "profile report matches golden"
        (read_file (Tu.example "golden/clean_compaction.profile.json"))
        (read_file prof))

(* ---- one run path: a single run is a one-job campaign ---- *)

let read_json p = J.of_string (read_file p)

let check_json what want got =
  Tu.check_string what (J.to_string want) (J.to_string got)

(* The three single runs (cycle with race checking, profile and stats;
   predict; functional) report exactly what the same three jobs report
   inside one campaign. *)
let single_run_equals_campaign () =
  let src = Tu.example "clean_compaction.xmtc" in
  with_temp ".json" (fun races ->
  with_temp ".json" (fun profile ->
  with_temp ".json" (fun stats ->
  with_temp ".json" (fun predict ->
  with_temp ".json" (fun spec ->
  with_temp ".json" (fun report ->
      let single args =
        let code, out, _ = run_cmd ([ xmtsim; src; "-c"; "tiny" ] @ args) in
        Tu.check_int (String.concat " " args ^ " exits 0") 0 code;
        out
      in
      let out_cycle =
        single
          [ "--racecheck"; "--export"; "races=" ^ races; "--export";
            "profile=" ^ profile; "--export"; "stats=" ^ stats ]
      in
      let out_predict = single [ "--mode"; "predict"; "--export"; "predict=" ^ predict ] in
      let out_functional = single [ "--functional" ] in
      let job mode extra =
        J.Obj ([ ("name", J.Str mode); ("source", J.Str src); ("mode", J.Str mode) ] @ extra)
      in
      J.write_file spec
        (J.Obj
           [
             ("schema", J.Str "xmt.campaign.v1");
             ("defaults", J.Obj [ ("preset", J.Str "tiny") ]);
             ( "jobs",
               J.List
                 [
                   job "cycle" [ ("racecheck", J.Bool true); ("profile", J.Bool true) ];
                   job "predict" [];
                   job "functional" [];
                 ] );
           ]);
      let code, out, _ =
        run_cmd
          [ xmtsim; "--campaign"; spec; "--export"; "campaign=" ^ report;
            "--export"; "campaign-det=-" ]
      in
      Tu.check_int "campaign exits 0" 0 code;
      let results =
        match J.member "results" (J.of_string out) with
        | Some (J.List [ c; p; f ]) -> [ c; p; f ]
        | _ -> Alcotest.fail "campaign report lacks three results"
      in
      let field r k =
        match J.member k r with Some v -> v | None -> Alcotest.failf "result lacks %S" k
      in
      let c, p, f = match results with [ c; p; f ] -> (c, p, f) | _ -> assert false in
      check_json "races" (field c "races") (read_json races);
      check_json "profile" (field c "profile") (read_json profile);
      check_json "predict" (field p "predict") (read_json predict);
      List.iter
        (fun (what, r, stdout) ->
          match field r "output" with
          | J.Str o -> Tu.check_string (what ^ " output") (o ^ "\n") stdout
          | _ -> Alcotest.fail "output is not a string")
        [ ("cycle", c, out_cycle); ("predict", p, out_predict); ("functional", f, out_functional) ];
      let metric name =
        match J.member "metrics" (read_json stats) with
        | Some (J.List ms) -> (
          match List.find_opt (fun m -> J.member "name" m = Some (J.Str name)) ms with
          | Some m -> J.member "value" m
          | None -> Alcotest.failf "stats lack %s" name)
        | _ -> Alcotest.fail "stats lack a metrics list"
      in
      check_json "sim.cycles" (field c "cycles") (Option.get (metric "sim.cycles"));
      check_json "host.events_processed" (field c "events")
        (Option.get (metric "host.events_processed"))))))))

(* xmtcc's assembly of a program simulates exactly like the program
   compiled on the fly, in every mode. *)
let assembly_round_trip () =
  let src = Tu.example "clean_compaction.xmtc" in
  with_temp ".s" (fun asm ->
      let code, _, _ = run_cmd [ xmtcc; src; "-o"; asm ] in
      Tu.check_int "xmtcc exits 0" 0 code;
      List.iter
        (fun mode ->
          let run input =
            let code, out, _ =
              run_cmd [ xmtsim; input; "--stats"; "-c"; "tiny"; "--mode"; mode ]
            in
            Tu.check_int (mode ^ " exits 0") 0 code;
            out
          in
          Tu.check_string (mode ^ " stdout identical") (run src) (run asm))
        [ "cycle"; "functional"; "predict" ])

(* A checkpoint written after the program halted, at its end or at a
   --checkpoint-at past it, resumes as halted: the resumed run prints the
   saved output once and runs nothing, gated or not.  A --checkpoint-at
   past the halt leaves the run's own report as a plain run's. *)
let checkpoint_after_halt_round_trip () =
  let src = Tu.example "clean_compaction.xmtc" in
  with_temp ".ckpt" (fun ckpt ->
      let _, plain, _ = run_cmd [ xmtsim; src; "--stats" ] in
      let resumes_halted how =
        List.iter
          (fun gating ->
            let code, out, err =
              run_cmd ([ xmtsim; src; "--checkpoint-in"; ckpt; "--stats" ] @ gating)
            in
            let what = String.concat " " (how :: "--checkpoint-in" :: gating) in
            Tu.check_int (what ^ " exits 0") 0 code;
            Tu.check_string (what ^ ": nothing on stderr") "" err;
            Tu.check_bool (what ^ " prints the saved output once") true
              (String.starts_with ~prefix:"0\n---- fpga64 ----\ncycles:            0\n" out))
          [ []; [ "--no-clock-gating" ] ]
      in
      let code, out, _ = run_cmd [ xmtsim; src; "--checkpoint-out"; ckpt ] in
      Tu.check_int "checkpointing run exits 0" 0 code;
      Tu.check_string "checkpointing run" ("0\ncheckpoint written to " ^ ckpt ^ "\n") out;
      resumes_halted "--checkpoint-out";
      let code, out, _ =
        run_cmd [ xmtsim; src; "--stats"; "--checkpoint-at"; "100000"; "--checkpoint-out"; ckpt ]
      in
      Tu.check_int "--checkpoint-at past the halt exits 0" 0 code;
      Tu.check_bool "--checkpoint-at past the halt reports the plain run" true
        (String.ends_with ~suffix:(" written to " ^ ckpt ^ "\n" ^ plain) out);
      resumes_halted "--checkpoint-at")

(* A single run that exhausts --max-cycles still reports what it ran;
   only campaign jobs count it as a failure. *)
let exhausted_budget_still_reports () =
  with_src (fun src ->
      let code, out, err = run_cmd [ xmtsim; src; "--max-cycles"; "50"; "--stats" ] in
      Tu.check_int "exit 0" 0 code;
      Tu.check_bool "warns" true (contains "cycle budget exhausted" err);
      Tu.check_bool "prints the stats" true (contains "---- fpga64 ----" out))

(* ---- input errors and mode rules ---- *)

let write_text path text = Out_channel.with_open_text path (fun oc -> output_string oc text)

(* A bad input file or value is the user's error: one "xmtsim: ..." line
   and exit 1, never the uncaught-exception banner. *)
let input_errors_exit_1 () =
  with_src (fun src ->
  with_temp ".ckpt" (fun ckpt ->
  with_temp ".map" (fun map ->
  with_temp ".s" (fun asm ->
  with_temp ".s" (fun div0 ->
  with_temp ".s" (fun join ->
      write_text ckpt "not a snapshot";
      write_text map "A 1 2\n";
      write_text asm "frobnicate $1, $2\n";
      (* runtime errors: a division by zero, a join with no spawn *)
      write_text div0 "li $t1, 7\nli $t2, 0\ndiv $t0, $t1, $t2\nhalt\n";
      write_text join "join\nhalt\n";
      let _, _, err = run_cmd [ xmtsim; src; "--max-cycles=-5" ] in
      Tu.check_bool "a bad --max-cycles is named" true
        (contains "--max-cycles must be >= 1, got -5" err);
      let ckpt_at = [ src; "--checkpoint-at=-5"; "--checkpoint-out"; ckpt ^ ".out" ] in
      let _, _, err = run_cmd (xmtsim :: ckpt_at) in
      Tu.check_bool "a bad --checkpoint-at is named" true
        (contains "--checkpoint-at must be >= 0, got -5" err);
      List.iter
        (fun args ->
          let code, _, err = run_cmd (xmtsim :: args) in
          let what = String.concat " " args in
          Tu.check_int (what ^ " exits 1") 1 code;
          Tu.check_bool (what ^ " says xmtsim: ...") true
            (String.starts_with ~prefix:"xmtsim: " err && not (contains "internal error" err)))
        ([
          [ src; "--checkpoint-in"; ckpt ];
          [ src; "--memmap"; map ];
          [ asm ];
          [ src; "--stream"; "-"; "--heartbeat-cycles"; "0" ];
          [ src; "--governor"; "--governor-interval"; "0" ];
          [ src; "--power-interval=-5" ];
          [ src; "--profile-interval=-5" ];
          [ src; "--max-cycles=-5" ];
          [ src; "--max-cycles"; "0" ];
          ckpt_at;
        ]
        @ List.concat_map
            (fun input ->
              List.map
                (fun mode -> [ input; "--mode"; mode ])
                [ "cycle"; "functional"; "predict" ])
            [ div0; join ])))))))

(* Every flag that acts on the cycle-accurate machine is rejected in the
   functional and predict modes, like the cycle-level sinks. *)
let cycle_only_flags_rejected () =
  with_src (fun src ->
  with_temp ".ckpt" (fun ckpt_in ->
      let ckpt_out = ckpt_in ^ ".out" in
      List.iter
        (fun mode ->
          List.iter
            (fun flag_args ->
              let args = (xmtsim :: src :: mode) @ flag_args in
              let what = String.concat " " (mode @ flag_args) in
              let code, _, err = run_cmd args in
              Tu.check_int (what ^ " exits 2") 2 code;
              Tu.check_bool (what ^ " names the flag and the mode") true
                (contains (List.hd flag_args) err && contains "cycle-accurate" err);
              Tu.check_bool (what ^ " writes no checkpoint") false (Sys.file_exists ckpt_out))
            [
              [ "--trace" ];
              [ "--trace-packages" ];
              [ "--hot" ];
              [ "--profile" ];
              [ "--profile-interval"; "100" ];
              [ "--power-interval"; "100" ];
              [ "--floorplan" ];
              [ "--checkpoint-in"; ckpt_in ];
              [ "--checkpoint-out"; ckpt_out ];
              [ "--checkpoint-at"; "10"; "--checkpoint-out"; ckpt_out ];
              [ "--no-clock-gating" ];
              [ "--max-cycles"; "100" ];
            ])
        [ [ "--functional" ]; [ "--mode"; "predict" ] ];
      let code, _, err = run_cmd [ xmtsim; src; "--floorplan" ] in
      Tu.check_int "--floorplan alone exits 1" 1 code;
      Tu.check_bool "names --power-interval" true (contains "--power-interval" err)))

(* ---- served campaigns: the same spec, the same stream ---- *)

(* A daemon whose working directory is not the spec's runs the spec's
   relative sources, and its stream canonicalizes like the direct run's,
   failing job included. *)
let served_matches_direct () =
  let dir = Filename.temp_dir "xmtcli" "" in
  let path p = Filename.concat dir p in
  let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      Unix.mkdir (path "specs") 0o755;
      write_text (path "specs/k.c") quiet_src;
      let spec name jobs =
        J.write_file (path ("specs/" ^ name))
          (J.Obj
             [
               ("schema", J.Str "xmt.campaign.v1");
               ("defaults", J.Obj [ ("preset", J.Str "tiny"); ("source", J.Str "k.c") ]);
               ("jobs", J.List (List.map (fun kvs -> J.Obj kvs) jobs));
             ])
      in
      spec "ok.json"
        [ [ ("name", J.Str "a") ]; [ ("name", J.Str "b"); ("seed", J.Int 3) ];
          [ ("name", J.Str "f"); ("mode", J.Str "functional") ] ];
      spec "fail.json"
        [ [ ("name", J.Str "a") ]; [ ("name", J.Str "broken"); ("inline", J.Str "syntax error {") ] ];
      let srv =
        Serve.Server.create
          { (Serve.Server.default_config ~socket_path:(path "x.sock")) with workers = Some 2 }
      in
      Fun.protect
        ~finally:(fun () -> Serve.Server.stop srv)
        (fun () ->
          let run args = run_cmd ~cwd:dir (abs xmtsim :: args) in
          let canon f = Obs.Stream.canonicalize_lines (read_file (path f)) in
          List.iter
            (fun (name, want) ->
              let spec = "specs/" ^ name in
              let code, _, _ =
                run [ "--campaign"; spec; "--stream"; "direct.ndjson"; "--export"; "campaign=r.json" ]
              in
              Tu.check_int (name ^ " direct exit") want code;
              let code, _, err = run [ "--connect"; "x.sock"; "--campaign"; spec; "--stream"; "served.ndjson" ] in
              Tu.check_int (name ^ " served exit") want code;
              Tu.check_bool (name ^ " served summary") true (contains "campaign c" err);
              Tu.check_bool (name ^ " has job records") true (canon "direct.ndjson" <> "");
              Tu.check_string (name ^ " canonical streams") (canon "direct.ndjson")
                (canon "served.ndjson"))
            [ ("ok.json", 0); ("fail.json", 1) ];
          (* a bad spec is the same input error on both paths *)
          spec "bad.json" [];
          let direct = run [ "--campaign"; "specs/bad.json" ] in
          let served = run [ "--connect"; "x.sock"; "--campaign"; "specs/bad.json" ] in
          check_rejected "campaign specs/bad.json" direct;
          Tu.check_bool "bad spec: same exit and line" true (direct = served);
          let code, _, err = run [ "--connect"; "x.sock"; "--attach"; "c1"; "--after"; "7" ] in
          Tu.check_int "--after 7 exits 1" 1 code;
          Tu.check_bool "names JOB:JSEQ" true (contains "JOB:JSEQ" err)))

let () =
  Alcotest.run "cli"
    [
      ( "json sinks",
        [
          Tu.tc "functional rejects cycle-level sinks" functional_trace_json_rejected;
          Tu.tc "stats export to stdout (+governor)" stats_json_to_stdout;
          Tu.tc "trace/timeseries to stdout" trace_and_timeseries_to_stdout;
          Tu.tc "timings-json to stdout" timings_json_to_stdout;
          Tu.tc "functional stats export works" functional_stats_json_still_works;
        ] );
      ( "export",
        [
          Tu.tc "--export stats=- to stdout" export_flag_to_stdout;
          Tu.tc "removed aliases error with replacement" removed_alias_errors;
          Tu.tc "unknown kind lists the registry" unknown_export_kind_lists_registry;
        ] );
      ( "predict",
        [
          Tu.tc "--mode predict exports xmt.predict.v1" predict_mode_exports;
          Tu.tc "predict sinks need --mode predict" predict_exports_need_predict_mode;
        ] );
      ( "campaign",
        [
          Tu.tc "runs + parallel determinism" campaign_runs_and_is_deterministic;
          Tu.tc "spec exec block supplies the knobs" campaign_exec_block;
          Tu.tc "failure sets exit code" campaign_failure_sets_exit_code;
        ] );
      ("golden", [ Tu.tc "trace + profile event order" golden_traces ]);
      ( "run path",
        [
          Tu.tc "single run equals a one-job campaign" single_run_equals_campaign;
          Tu.tc "xmtcc .s simulates like its source" assembly_round_trip;
          Tu.tc "exhausted budget still reports" exhausted_budget_still_reports;
          Tu.tc "checkpoint after the halt resumes halted" checkpoint_after_halt_round_trip;
          Tu.tc "input errors exit 1" input_errors_exit_1;
          Tu.tc "cycle-only flags need the cycle mode" cycle_only_flags_rejected;
        ] );
      ( "serve",
        [
          Tu.tc "--attach needs --connect" attach_needs_connect;
          Tu.tc "connect failure exits 3" connect_refused_exits_3;
          Tu.tc "served campaign matches the direct run" served_matches_direct;
        ] );
      ( "flag table",
        [
          Tu.tc "--campaign rejects single-run flags" campaign_rejects_single_run_flags;
          Tu.tc "single runs reject campaign flags" single_run_rejects_campaign_flags;
          Tu.tc "--connect rejects in-process flags" connect_rejects_in_process_flags;
        ] );
    ]
