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

(** Exact checks that failed so far; [main.exe] exits 1 when any did. *)
let mismatches = ref 0

(** [check ok "..."] prints one check line, [[ok]] or [[MISMATCH]].  An
    exact check (a simulated quantity, deterministic) that fails is
    counted in {!mismatches}; a [~host] target (a host-time budget) that
    is missed prints [[over target]] and is never fatal. *)
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

(* -------- machine-readable benchmark records -------- *)

let slug name =
  String.map (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
      | _ -> '_')
    name

(** Write a [BENCH_<name>.json] record in the current directory so the
    bench trajectory can be tracked PR-over-PR.  [fields] extend the
    standard envelope. *)
let emit_record ~name fields =
  let path = Printf.sprintf "BENCH_%s.json" (slug name) in
  Obs.Json.write_file ~pretty:true path
    (Obs.Json.Obj (("schema", Obs.Json.Str "xmt.bench.v1")
                   :: ("bench", Obs.Json.Str name) :: fields));
  Printf.printf "  [wrote %s]\n%!" path

(** One instrumented cycle-accurate run of [compiled]: returns the run and
    writes its BENCH record (simulated cycles, host wall-clock, desim
    events/sec, cache hit rates). *)
let record_run ?(config = Xmtsim.Config.fpga64) ~name compiled =
  let r, secs = wall (fun () -> Core.Toolchain.run_cycle ~config compiled) in
  let s = r.Core.Toolchain.stats in
  let rate h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m) in
  let per_sec n = if secs > 0.0 then float_of_int n /. secs else 0.0 in
  emit_record ~name
    [
      ("config", Obs.Json.Str config.Xmtsim.Config.name);
      ("cycles", Obs.Json.Int r.Core.Toolchain.cycles);
      ("instructions", Obs.Json.Int r.Core.Toolchain.instructions);
      ("host_wall_seconds", Obs.Json.Float secs);
      ("events_processed", Obs.Json.Int r.Core.Toolchain.events);
      ("events_per_sec", Obs.Json.Float (per_sec r.Core.Toolchain.events));
      ("sim_cycles_per_sec", Obs.Json.Float (per_sec r.Core.Toolchain.cycles));
      ("sim_instrs_per_sec", Obs.Json.Float (per_sec r.Core.Toolchain.instructions));
      ( "cache_hit_rate",
        Obs.Json.Float (rate s.Xmtsim.Stats.cache_hits s.Xmtsim.Stats.cache_misses) );
      ( "rocache_hit_rate",
        Obs.Json.Float (rate s.Xmtsim.Stats.rocache_hits s.Xmtsim.Stats.rocache_misses) );
      ("icn_packets", Obs.Json.Int s.Xmtsim.Stats.icn_packets);
      ("dram_reads", Obs.Json.Int s.Xmtsim.Stats.dram_reads);
    ];
  r

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
