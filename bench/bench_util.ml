(** Shared plumbing for the evaluation harness. *)

let section title =
  let bar = String.make 78 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" bar title bar

let subsection title = Printf.printf "\n--- %s ---\n%!" title

(* monotonic, so a host clock step mid-bench cannot produce negative or
   inflated timings *)
let wall f = Obs.Clock.wall f

(** Nanoseconds per run of [f], measured with Bechamel's OLS estimator on
    the monotonic clock; falls back to a single wall-clock measurement for
    long-running functions. *)
let bechamel_ns_per_run ?(quota = 3.0) ~name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:20 ~quota:(Time.second quota) ~stabilize:false
      ~sampling:(`Linear 1) ~start:1 ()
  in
  let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
  let est = ref None in
  Hashtbl.iter
    (fun _ v ->
      match Analyze.OLS.estimates v with
      | Some (x :: _) -> est := Some x
      | _ -> ())
    analyzed;
  match !est with
  | Some ns when ns > 0.0 -> ns
  | Some _ | None ->
    let _, secs = wall f in
    secs *. 1e9

let compile ?options ?memmap src = Core.Toolchain.compile ?options ?memmap src

(* -------- checks -------- *)

(** Checks that failed so far; [main.exe] exits 1 when any did, so its
    exit code is the bench's gate. *)
let mismatches = ref 0

(** [check ok "..."] prints one check line, [[ok]] or [[MISMATCH]].  A
    failed check is counted in {!mismatches}: exact checks on simulated
    quantities (deterministic) and the contracts a bench exists to hold
    (prediction error and speed, parallel speedup, same-run host ratios
    against collapse).  A [~host] target (a tight host-time budget,
    noise-sensitive) that is missed prints [[over target]] and is never
    fatal. *)
let check ?(host = false) ok fmt =
  Printf.ksprintf
    (fun msg ->
      let tag =
        if ok then "[ok]"
        else if host then "[over target]"
        else begin
          incr mismatches;
          "[MISMATCH]"
        end
      in
      Printf.printf "  %s %s\n%!" tag msg)
    fmt

let commas n =
  let s = string_of_int n in
  let b = Buffer.create 16 in
  let len = String.length s in
  String.iteri
    (fun i c ->
      Buffer.add_char b c;
      let rem = len - i - 1 in
      if rem > 0 && rem mod 3 = 0 && c <> '-' then Buffer.add_char b ',')
    s;
  Buffer.contents b

(** [pinned what ~expect got]: the exact check that a deterministic
    simulated cycle count still equals the figure recorded for it. *)
let pinned what ~expect got =
  check (got = expect) "%s: %s cycles (pinned %s)" what (commas got)
    (commas expect)

(* -------- campaign plumbing -------- *)

(** Worker-domain count for campaign-backed experiments, set by
    [bench/main.exe --jobs N].  Results are byte-identical for any
    value; only wall-clock changes. *)
let jobs = ref 1

(* The harness-wide warm pool and artifact cache: domains spawn once
   and compiled programs are shared across every campaign-backed
   experiment in the run, so bench iterations measure simulation, not
   Domain.spawn or recompiles. *)
let pool_ref : Campaign.Pool.t option ref = ref None

(** The shared pool, (re)created at least [workers] wide.  [main.exe]
    shuts it down at exit via {!shutdown_pool}. *)
let pool ~workers =
  match !pool_ref with
  | Some p when Campaign.Pool.width p >= workers -> p
  | old ->
    Option.iter Campaign.Pool.shutdown old;
    let p = Campaign.Pool.create ~workers () in
    pool_ref := Some p;
    p

let shutdown_pool () =
  Option.iter Campaign.Pool.shutdown !pool_ref;
  pool_ref := None

(** Compile cache shared by every campaign-backed experiment. *)
let artifacts = Core.Toolchain.Artifacts.create ()

(** Run [(name, job)] specs through the campaign engine at the
    harness-wide [--jobs] width (on the shared warm pool, compiles
    deduplicated) and return the runs in submission order.  Benches
    expect every job to succeed, so the first failure escalates with
    its captured error. *)
let run_jobs specs =
  let req = Campaign.Request.make ~jobs:!jobs specs in
  let results =
    Campaign.run_request ~pool:(pool ~workers:!jobs) ~artifacts req
  in
  Array.map
    (fun r ->
      match r.Campaign.r_outcome with
      | Ok run -> run
      | Error f ->
        failwith (Printf.sprintf "%s: %s" r.Campaign.r_name f.Campaign.f_exn))
    results

let cycles_of ?(config = Xmtsim.Config.fpga64) compiled =
  (Core.Toolchain.run_cycle ~config compiled).Core.Toolchain.cycles
