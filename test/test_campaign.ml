(** Campaign engine: submission order, the warm pool, fault isolation,
    retry accounting, the job-oriented Toolchain API and the validated
    Config constructors it rides on (serial = parallel is
    test_oracle's). *)

module C = Xmtsim.Config
module T = Core.Toolchain

let report rs = Obs.Json.to_string (Campaign.report_to_json ~host:false rs)

let order_is_submission_order () =
  let specs = Tu.det_specs () in
  let rs = Campaign.run ~jobs:3 specs in
  List.iteri
    (fun i (name, _) ->
      Tu.check_int "index" i rs.(i).Campaign.r_index;
      Tu.check_string "name" name rs.(i).Campaign.r_name)
    specs

(* ---- warm pool, work stealing, shared artifacts ---- *)

(* the oracle's campaign variant, with far more workers than jobs (the
   clamp) *)
let stress_stealing_deterministic () =
  Tu.agree_campaign ~workers:[ 2; 4; 300 ] "stealing" (Tu.stress_specs 120)

let pool_reused_across_runs () =
  let artifacts = Core.Toolchain.Artifacts.create () in
  Campaign.Pool.with_pool ~workers:3 (fun pool ->
      let a = Campaign.run ~pool ~artifacts (Tu.stress_specs 40) in
      let b = Campaign.run ~pool ~artifacts (Tu.stress_specs 40) in
      Tu.check_int "first run all ok" 40 (Campaign.ok_count a);
      Tu.check_string "re-run on the warm pool identical" (report a) (report b);
      Array.iter
        (fun r ->
          Tu.check_bool "monotonic wall time" true
            (r.Campaign.r_wall_seconds >= 0.0))
        b;
      let hits, compiles = Core.Toolchain.Artifacts.stats artifacts in
      Tu.check_bool "artifacts reused across jobs and runs" true (hits > 0);
      Tu.check_bool "compiles bounded by distinct keys" true (compiles <= 8);
      (* a different job list through the same warm pool *)
      let c = Campaign.run ~pool ~jobs:2 (Tu.det_specs ()) in
      Tu.check_int "third run ok" (List.length (Tu.det_specs ()))
        (Campaign.ok_count c))

let poisoned_jobs_under_stealing () =
  let specs =
    List.map
      (fun ((name, _) as spec) ->
        let i = int_of_string (String.sub name 1 3) in
        if i mod 13 = 6 then
          (name, T.job ~name ~config:C.tiny "int main() { return broken; }")
        else spec)
      (Tu.stress_specs 60)
  in
  let rs = Campaign.run ~jobs:4 specs in
  Tu.check_int "exactly the poisoned jobs fail" 5 (Campaign.failed_count rs);
  Array.iteri
    (fun i r ->
      match r.Campaign.r_outcome with
      | Ok _ ->
        Tu.check_bool "good job succeeded" true (i mod 13 <> 6)
      | Error f ->
        Tu.check_bool "bad job failed" true (i mod 13 = 6);
        Tu.check_bool "error captured" true (f.Campaign.f_exn <> ""))
    rs

(* ---- shared predict harvests ---- *)

let harvests a = snd (T.Artifacts.harvest_stats a)

(* [n] predict jobs of [src], each on its own fpga64 point *)
let predict_points ?max_instructions n src =
  List.init n (fun i ->
      let name = Printf.sprintf "p%02d" i in
      let point = Printf.sprintf "dram_latency=%d" (20 + (10 * i)) in
      let config = C.with_overrides C.fpga64 [ point ] in
      (name, T.job ~name ~mode:T.Predict ?max_instructions ~config src))

(* A width-4 pool prices one program at 12 points with one harvest; the
   jobs that start while the first is still compiling or harvesting
   wait on its Building slot and get what a job run alone gets.  A
   round in which no job started before the first finished showed no
   waiter, so it is run again (a handful of times at most). *)
let one_harvest_per_program () =
  let specs = predict_points 12 (Core.Kernels.vecadd ~n:4096) in
  let want = Tu.alone specs in
  Campaign.Pool.with_pool ~workers:4 (fun pool ->
      let rec round k =
        let a = T.Artifacts.create () in
        let finished = ref false and early = ref 0 in
        let on_event = function
          | Campaign.Job_started _ -> if not !finished then incr early
          | Campaign.Job_finished _ | Campaign.Job_failed _ -> finished := true
        in
        let rs = Campaign.run ~pool ~artifacts:a ~on_event specs in
        Tu.check_int "all ok" 12 (Campaign.ok_count rs);
        Tu.check_int "one harvest" 1 (harvests a);
        Tu.check_int "eleven shared" 11 (fst (T.Artifacts.harvest_stats a));
        Tu.check_string "report as with nothing shared" want (report rs);
        if !early < 2 && k < 5 then round (k + 1) else !early
      in
      Tu.check_bool "a job waited on the first one's harvest" true (round 1 >= 2))

(* A pass that runs out of budget fails its job on each attempt and is
   not cached: the retry and an identical later job harvest again.  The
   compile it rode on is cached as usual. *)
let failed_harvest_not_cached () =
  let a = T.Artifacts.create () in
  let starved = predict_points ~max_instructions:20 1 (Core.Kernels.vecadd ~n:64) in
  let rs = Campaign.run ~artifacts:a ~retries:1 starved in
  Tu.check_int "failed" 1 (Campaign.failed_count rs);
  Tu.check_int "two attempts" 2 rs.(0).Campaign.r_attempts;
  Tu.check_int "two harvest misses" 2 (harvests a);
  let rs = Campaign.run ~artifacts:a starved in
  Tu.check_int "failed again" 1 (Campaign.failed_count rs);
  Tu.check_int "missed again" 3 (harvests a);
  Tu.check_int "no harvest shared" 0 (fst (T.Artifacts.harvest_stats a));
  Tu.check_int "one compile" 1 (snd (T.Artifacts.stats a))

(* The budget is in the harvest's key: the same source under a second
   budget harvests again, under the same budget it shares. *)
let budget_keys_the_harvest () =
  let a = T.Artifacts.create () in
  let src = Core.Kernels.vecadd ~n:64 in
  let specs =
    predict_points 2 src
    @ predict_points ~max_instructions:1_000_000 2 src
  in
  let rs = Campaign.run ~artifacts:a specs in
  Tu.check_int "all ok" 4 (Campaign.ok_count rs);
  Tu.check_int "two harvests" 2 (harvests a);
  Tu.check_int "two shared" 2 (fst (T.Artifacts.harvest_stats a));
  Tu.check_int "one compile" 1 (snd (T.Artifacts.stats a));
  Tu.check_string "report as with nothing shared" (Tu.alone specs) (report rs)

let workers_clamped_to_jobs () =
  (* ~jobs:8 with 2 jobs must run on 2 workers; the campaign.start
     stream record reports the clamped width *)
  let buf = Buffer.create 512 in
  let s = Obs.Stream.create (Obs.Stream.buffer_sink buf) in
  let rs =
    Campaign.run ~jobs:8 ~stream:s [ Tu.vecadd_job 16; Tu.vecadd_job 24 ]
  in
  Obs.Stream.close s;
  Tu.check_int "both jobs ok" 2 (Campaign.ok_count rs);
  let workers =
    Buffer.contents buf |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           if String.trim l = "" then None
           else
             let j = Obs.Json.of_string l in
             match Obs.Json.member "type" j with
             | Some (Obs.Json.Str "campaign.start") ->
               Option.bind (Obs.Json.member "workers" j) Obs.Json.to_int
             | _ -> None)
    |> List.hd
  in
  Tu.check_int "clamped to job count" 2 workers

(* ---- the pool itself ---- *)

(* a step over indices [0, n): each call claims the next one *)
let cursor n f =
  let next = Atomic.make 0 in
  fun ~worker:_ ->
    let i = Atomic.fetch_and_add next 1 in
    i < n && (f i; true)

let pool_runs_each_index_once () =
  List.iter
    (fun workers ->
      Campaign.Pool.with_pool ~workers (fun pool ->
          let hits = Array.init 500 (fun _ -> Atomic.make 0) in
          Campaign.Pool.run pool (cursor 500 (fun i -> Atomic.incr hits.(i)));
          Array.iteri
            (fun i h ->
              let h = Atomic.get h in
              if h <> 1 then Alcotest.failf "width %d: index %d ran %d times" workers i h)
            hits))
    [ 1; 2; 4 ]

let pool_propagates_failure () =
  List.iter
    (fun workers ->
      Campaign.Pool.with_pool ~workers (fun pool ->
          match
            Campaign.Pool.run pool (cursor 10 (fun i -> if i = 7 then failwith "boom7"))
          with
          | () -> Alcotest.failf "width %d: expected the worker failure to surface" workers
          | exception Failure m -> Tu.check_string "failure text" "boom7" m))
    [ 1; 2; 4 ];
  (* the campaign engine, by contrast, isolates job failures *)
  ()

(* a raising step stops only its own participant: the other one pulls
   every remaining index, and the failure still surfaces *)
let pool_failure_spares_the_rest () =
  Campaign.Pool.with_pool ~workers:2 (fun pool ->
      let hits = Array.init 500 (fun _ -> Atomic.make 0) in
      (match
         Campaign.Pool.run pool
           (cursor 500 (fun i ->
                Atomic.incr hits.(i);
                if i = 0 then failwith "boom0"))
       with
      | () -> Alcotest.fail "expected the worker failure to surface"
      | exception Failure m -> Tu.check_string "failure text" "boom0" m);
      Array.iteri
        (fun i h ->
          let h = Atomic.get h in
          if h <> 1 then Alcotest.failf "index %d ran %d times" i h)
        hits)

let pool_shutdown_idempotent () =
  let pool = Campaign.Pool.create ~workers:3 () in
  Campaign.Pool.run pool (cursor 8 ignore);
  Campaign.Pool.shutdown pool;
  (* repeat calls are no-ops, not errors *)
  Campaign.Pool.shutdown pool;
  Campaign.Pool.shutdown pool;
  (* whatever the work or participant count: one job, four, one
     participant *)
  List.iter
    (fun (what, run) ->
      let ran = ref false in
      match run (fun _ -> ran := true) with
      | () -> Alcotest.failf "%s: run on a shut-down pool must be rejected" what
      | exception Invalid_argument _ -> Tu.check_bool (what ^ ": no step ran") false !ran)
    [
      ("4 jobs", fun f -> Campaign.Pool.run pool (cursor 4 f));
      ("1 job", fun f -> Campaign.Pool.run pool (cursor 1 f));
      ("1 participant", fun f -> Campaign.Pool.run pool ~participants:1 (cursor 4 f));
    ]

let pool_shutdown_concurrent () =
  (* several threads race shutdown; every call must return only after
     the helpers are joined, and none may error *)
  let pool = Campaign.Pool.create ~workers:4 () in
  let errors = Atomic.make 0 in
  let ts =
    List.init 6 (fun _ ->
        Thread.create
          (fun () ->
            try Campaign.Pool.shutdown pool
            with _ -> Atomic.incr errors)
          ())
  in
  List.iter Thread.join ts;
  Tu.check_int "no shutdown call raised" 0 (Atomic.get errors);
  match Campaign.Pool.run pool (cursor 2 ignore) with
  | () -> Alcotest.fail "run on a shut-down pool must be rejected"
  | exception Invalid_argument _ -> ()

(* ---- fault isolation ---- *)

let failures_are_isolated () =
  let good n = Tu.vecadd_job n in
  let specs =
    [
      good 16;
      (* compile error: undeclared identifier *)
      ("bad-source", T.job ~name:"bad-source" ~config:C.tiny "int main() { return undeclared_thing; }");
      good 24;
      (* cycle budget exhausted mid-simulation *)
      ( "starved",
        T.job ~name:"starved" ~config:C.tiny ~max_cycles:10
          (Core.Kernels.vecadd ~n:64) );
      good 32;
    ]
  in
  let rs = Campaign.run ~jobs:2 specs in
  Tu.check_int "ok count" 3 (Campaign.ok_count rs);
  Tu.check_int "failed count" 2 (Campaign.failed_count rs);
  (match rs.(1).Campaign.r_outcome with
  | Error f -> Tu.check_bool "error text nonempty" true (f.Campaign.f_exn <> "")
  | Ok _ -> Alcotest.fail "bad-source unexpectedly succeeded");
  (match rs.(3).Campaign.r_outcome with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "starved job unexpectedly succeeded");
  (* neighbours of the failures are intact *)
  List.iter
    (fun i ->
      match rs.(i).Campaign.r_outcome with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "job %d poisoned: %s" i f.Campaign.f_exn)
    [ 0; 2; 4 ]

let failed_jobs_are_retried () =
  let specs =
    [
      ("boom", T.job ~name:"boom" ~config:C.tiny "not even c");
      Tu.vecadd_job 16;
    ]
  in
  let rs = Campaign.run ~jobs:1 ~retries:2 specs in
  Tu.check_int "failed attempts = 1 + retries" 3 rs.(0).Campaign.r_attempts;
  Tu.check_int "success takes one attempt" 1 rs.(1).Campaign.r_attempts

let events_cover_every_job () =
  let started = ref 0 and finished = ref 0 and failed = ref 0 in
  let on_event = function
    | Campaign.Job_started _ -> incr started
    | Campaign.Job_finished _ -> incr finished
    | Campaign.Job_failed _ -> incr failed
  in
  let specs =
    [ Tu.vecadd_job 16; ("bad", T.job ~name:"bad" ~config:C.tiny "}{"); Tu.vecadd_job 24 ]
  in
  let reg = Obs.Metrics.create () in
  let rs = Campaign.run ~jobs:2 ~on_event ~metrics:reg specs in
  Tu.check_int "started events" 3 !started;
  Tu.check_int "finished events" 2 !finished;
  Tu.check_int "failed events" 1 !failed;
  Tu.check_int "ok" 2 (Campaign.ok_count rs);
  Tu.check_bool "wall gauge set" true
    (Option.value ~default:0.0
       (Obs.Metrics.gauge_value reg "campaign.wall_seconds")
    > 0.0)

(* ---- the job-oriented Toolchain API ---- *)

let run_job_matches_wrappers () =
  let src = Core.Kernels.vecadd ~n:32 in
  let via_job =
    T.run_job (T.job ~name:"j" ~config:C.tiny src)
  in
  let via_exec = T.exec ~config:C.tiny src in
  Tu.check_string "output" via_exec.T.output via_job.T.output;
  Tu.check_int "cycles" via_exec.T.cycles via_job.T.cycles;
  let f_job = T.run_job (T.job ~mode:T.Functional src) in
  let f_exec = T.exec ~functional:true src in
  Tu.check_string "functional output" f_exec.T.output f_job.T.output

let job_seed_overrides_config () =
  let j = T.job ~config:C.tiny ~seed:12345 (Core.Kernels.vecadd ~n:16) in
  Tu.check_int "seed folded into config" 12345 (T.job_config j).C.seed

(* ---- validated Config constructors ---- *)

let bad_configs_are_rejected () =
  let rejects name f =
    match f () with
    | exception C.Bad_config _ -> ()
    | _ -> Alcotest.failf "%s: Bad_config expected" name
  in
  rejects "override num_clusters=0" (fun () ->
      C.with_overrides C.tiny [ "num_clusters=0" ]);
  rejects "checked dram_latency=-1" (fun () ->
      C.checked { C.fpga64 with C.dram_latency = -1 });
  rejects "checked num_cache_modules=0" (fun () ->
      C.checked { C.fpga64 with C.num_cache_modules = 0 });
  rejects "override tcus_per_cluster=0" (fun () ->
      C.with_overrides C.tiny [ "num_clusters=2"; "tcus_per_cluster=0" ])

let validate_lists_problems () =
  match C.validate { C.tiny with C.num_clusters = 0; C.dram_latency = -5 } with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error msg ->
    let has sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    Tu.check_bool "mentions num_clusters" true (has "num_clusters");
    Tu.check_bool "mentions dram_latency" true (has "dram_latency")

let make_builds_valid_machines () =
  let c =
    C.checked
      { C.fpga64 with C.name = "custom"; num_clusters = 2; tcus_per_cluster = 4; seed = 9 }
  in
  Tu.check_string "name" "custom" c.C.name;
  Tu.check_int "tcus" 8 (C.num_tcus c);
  Tu.check_int "seed" 9 c.C.seed;
  (* base defaults come from fpga64 *)
  Tu.check_int "inherited dram_latency" C.fpga64.C.dram_latency c.C.dram_latency

(* ---- campaign spec files ---- *)

let spec_parsing () =
  let json =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "xmt.campaign.v1");
        ( "defaults",
          Obs.Json.Obj
            [ ("preset", Obs.Json.Str "tiny"); ("seed", Obs.Json.Int 7) ] );
        ( "jobs",
          Obs.Json.List
            [
              Obs.Json.Obj
                [
                  ("name", Obs.Json.Str "a");
                  ("inline", Obs.Json.Str (Core.Kernels.vecadd ~n:16));
                ];
              Obs.Json.Obj
                [
                  ("name", Obs.Json.Str "b");
                  ("inline", Obs.Json.Str (Core.Kernels.vecadd ~n:24));
                  ("mode", Obs.Json.Str "functional");
                  ("seed", Obs.Json.Int 3);
                  ("set", Obs.Json.List [ Obs.Json.Str "dram_latency=9" ]);
                ];
            ] );
      ]
  in
  let specs = Campaign.jobs_of_json json in
  Tu.check_int "two jobs" 2 (List.length specs);
  let _, a = List.nth specs 0 and _, b = List.nth specs 1 in
  Tu.check_string "preset default applies" "tiny" (T.job_config a).C.name;
  Tu.check_int "default seed" 7 (T.job_config a).C.seed;
  Tu.check_string "mode" "functional" (T.mode_name b.T.mode);
  let rs = Campaign.run ~jobs:2 specs in
  Tu.check_int "spec campaign runs" 2 (Campaign.ok_count rs)

let spec_errors () =
  let rejects json =
    match Campaign.jobs_of_json json with
    | exception Campaign.Spec_error _ -> ()
    | _ -> Alcotest.fail "Spec_error expected"
  in
  rejects (Obs.Json.Obj [ ("schema", Obs.Json.Str "nope") ]);
  rejects
    (Obs.Json.Obj
       [
         ("schema", Obs.Json.Str "xmt.campaign.v1");
         ("jobs", Obs.Json.List [ Obs.Json.Obj [ ("name", Obs.Json.Str "x") ] ]);
       ]);
  (* a cycle budget below 1 is rejected before any run, naming the job,
     whether the job or the defaults give it *)
  List.iter
    (fun (defaults, job, prefix) ->
      let json =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.Str "xmt.campaign.v1");
            ("defaults", Obs.Json.Obj defaults);
            ( "jobs",
              Obs.Json.List
                [ Obs.Json.Obj (("inline", Obs.Json.Str (Core.Kernels.vecadd ~n:16)) :: job) ] );
          ]
      in
      match Campaign.jobs_of_json json with
      | exception Campaign.Spec_error msg ->
        Tu.check_bool ("names the job: " ^ msg) true (String.starts_with ~prefix msg)
      | _ -> Alcotest.fail "max_cycles < 1: Spec_error expected")
    [
      ( [],
        [ ("name", Obs.Json.Str "capped"); ("max_cycles", Obs.Json.Int (-5)) ],
        "job \"capped\": \"max_cycles\" must be >= 1, got -5" );
      ([ ("max_cycles", Obs.Json.Int 0) ], [], "job \"job0\": \"max_cycles\" must be >= 1");
    ]

(* A memmap that is missing or malformed is a spec error naming the job,
   like every other bad spec field, not an exception from the parser. *)
let bad_memmap_is_spec_error () =
  let bad = Filename.temp_file "campaign" ".map" in
  Out_channel.with_open_text bad (fun oc -> output_string oc "A 1 2\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      List.iter
        (fun path ->
          let json =
            Obs.Json.Obj
              [
                ("schema", Obs.Json.Str "xmt.campaign.v1");
                ( "jobs",
                  Obs.Json.List
                    [
                      Obs.Json.Obj
                        [
                          ("name", Obs.Json.Str "mapped");
                          ("inline", Obs.Json.Str (Core.Kernels.vecadd ~n:16));
                          ("memmap", Obs.Json.Str path);
                        ];
                    ] );
              ]
          in
          match Campaign.jobs_of_json json with
          | exception Campaign.Spec_error msg ->
            Tu.check_bool ("names the job: " ^ msg) true
              (String.starts_with ~prefix:"job \"mapped\": memmap" msg)
          | _ -> Alcotest.failf "memmap %s: Spec_error expected" path)
        [ bad; bad ^ ".missing" ])

(* ---- the first-class request API ---- *)

let request_builders () =
  let specs = [ Tu.vecadd_job 16; Tu.vecadd_job 24 ] in
  let r = Campaign.Request.make specs in
  Tu.check_int "default retries" 0 r.Campaign.Request.retries;
  Tu.check_bool "default jobs = pool width" true
    (r.Campaign.Request.jobs = None);
  let r = Campaign.Request.with_jobs r (Some 2) in
  let r = Campaign.Request.with_retries r 3 in
  Tu.check_bool "with_jobs" true (r.Campaign.Request.jobs = Some 2);
  Tu.check_int "with_retries" 3 r.Campaign.Request.retries;
  let rs = Campaign.run_request r in
  Tu.check_int "request runs" 2 (Campaign.ok_count rs);
  (* run is a thin wrapper over run_request: same report *)
  Tu.check_string "run == run_request" (report rs)
    (report (Campaign.run ~jobs:2 ~retries:3 specs))

let request_validation () =
  let specs = [ Tu.vecadd_job 16 ] in
  let rejects f =
    match f () with
    | exception Campaign.Spec_error _ -> ()
    | (_ : Campaign.Request.t) -> Alcotest.fail "Spec_error expected"
  in
  rejects (fun () -> Campaign.Request.make ~jobs:0 specs);
  rejects (fun () -> Campaign.Request.make ~retries:(-1) specs);
  rejects (fun () ->
      Campaign.Request.with_jobs (Campaign.Request.make specs) (Some (-4)));
  (match Campaign.Request.validate (Campaign.Request.make specs) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "valid request rejected: %s" m);
  match
    Campaign.Request.validate (Campaign.Request.make ~jobs:4 ~retries:1 specs)
  with
  | Ok r -> Tu.check_bool "jobs kept" true (r.Campaign.Request.jobs = Some 4)
  | Error m -> Alcotest.failf "valid request rejected: %s" m

let request_of_json_exec () =
  let json =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "xmt.campaign.v1");
        ( "exec",
          Obs.Json.Obj
            [
              ("jobs", Obs.Json.Int 2);
              ("retries", Obs.Json.Int 1);
            ] );
        ("defaults", Obs.Json.Obj [ ("preset", Obs.Json.Str "tiny") ]);
        ( "jobs",
          Obs.Json.List
            [
              Obs.Json.Obj
                [
                  ("name", Obs.Json.Str "a");
                  ("inline", Obs.Json.Str (Core.Kernels.vecadd ~n:16));
                ];
            ] );
      ]
  in
  let r = Campaign.Request.of_json json in
  Tu.check_bool "exec jobs" true (r.Campaign.Request.jobs = Some 2);
  Tu.check_int "exec retries" 1 r.Campaign.Request.retries;
  Tu.check_int "specs parsed" 1 (List.length r.Campaign.Request.specs);
  (* exec is optional; bad exec values are Spec_errors *)
  let no_exec =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "xmt.campaign.v1");
        ( "jobs",
          Obs.Json.List
            [
              Obs.Json.Obj
                [
                  ("name", Obs.Json.Str "a");
                  ("preset", Obs.Json.Str "tiny");
                  ("inline", Obs.Json.Str (Core.Kernels.vecadd ~n:16));
                ];
            ] );
      ]
  in
  Tu.check_bool "no exec = defaults" true
    ((Campaign.Request.of_json no_exec).Campaign.Request.jobs = None);
  match
    Campaign.Request.of_json
      (Obs.Json.Obj
         [
           ("schema", Obs.Json.Str "xmt.campaign.v1");
           ("exec", Obs.Json.Obj [ ("jobs", Obs.Json.Int 0) ]);
           ( "jobs",
             Obs.Json.List
               [
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.Str "a");
                     ("preset", Obs.Json.Str "tiny");
                     ("inline", Obs.Json.Str (Core.Kernels.vecadd ~n:16));
                   ];
               ] );
         ])
  with
  | exception Campaign.Spec_error _ -> ()
  | _ -> Alcotest.fail "exec jobs=0 must be a Spec_error"

let () =
  Alcotest.run "campaign"
    [
      ( "determinism",
        [
          Tu.tc "submission order preserved" order_is_submission_order;
        ] );
      ( "warm pool",
        [
          Tu.tc "stealing deterministic (1/2/4/300 workers)" stress_stealing_deterministic;
          Tu.tc "pool + artifacts reused across runs" pool_reused_across_runs;
          Tu.tc "poisoned jobs isolated under stealing"
            poisoned_jobs_under_stealing;
          Tu.tc "workers clamped to job count" workers_clamped_to_jobs;
          Tu.tc "pool runs each index once" pool_runs_each_index_once;
          Tu.tc "pool propagates worker failure" pool_propagates_failure;
          Tu.tc "pool failure spares the other participants"
            pool_failure_spares_the_rest;
          Tu.tc "pool shutdown idempotent" pool_shutdown_idempotent;
          Tu.tc "pool shutdown concurrent-safe" pool_shutdown_concurrent;
        ] );
      ( "shared harvests",
        [
          Tu.tc "one harvest per program on a wide pool" one_harvest_per_program;
          Tu.tc "a failed harvest is not cached" failed_harvest_not_cached;
          Tu.tc "the budget keys the harvest" budget_keys_the_harvest;
        ] );
      ( "fault isolation",
        [
          Tu.tc "failures isolated" failures_are_isolated;
          Tu.tc "retry accounting" failed_jobs_are_retried;
          Tu.tc "events and metrics" events_cover_every_job;
        ] );
      ( "job api",
        [
          Tu.tc "run_job matches wrappers" run_job_matches_wrappers;
          Tu.tc "job seed overrides config" job_seed_overrides_config;
        ] );
      ( "config validation",
        [
          Tu.tc "bad configs rejected" bad_configs_are_rejected;
          Tu.tc "validate lists problems" validate_lists_problems;
          Tu.tc "make builds valid machines" make_builds_valid_machines;
        ] );
      ( "spec files",
        [ Tu.tc "parsing" spec_parsing; Tu.tc "errors" spec_errors;
          Tu.tc "bad memmap is a spec error" bad_memmap_is_spec_error ] );
      ( "requests",
        [
          Tu.tc "builders + run_request" request_builders;
          Tu.tc "validation" request_validation;
          Tu.tc "of_json exec block" request_of_json_exec;
        ] );
    ]
