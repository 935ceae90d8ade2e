(** Shared helpers for the test suites. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tc name f = Alcotest.test_case name `Quick f

(** Compile and run a source in both modes; return (functional output,
    cycle output, cycles). *)
let both ?options ?memmap ?(config = Xmtsim.Config.tiny) src =
  let compiled = Core.Toolchain.compile ?options ?memmap src in
  let f = Core.Toolchain.run_functional compiled in
  let c = Core.Toolchain.run_cycle ~config compiled in
  (f.Core.Toolchain.output, c.Core.Toolchain.output, c.Core.Toolchain.cycles)

(** Assert a program prints [expected] in both modes. *)
let expect_output ?options ?memmap ?config name expected src =
  let fo, co, _ = both ?options ?memmap ?config src in
  check_string (name ^ " (functional)") expected fo;
  check_string (name ^ " (cycle)") expected co

(** Run handwritten assembly on the cycle machine. *)
let run_asm ?(config = Xmtsim.Config.tiny) ?memmap asm =
  let prog = Isa.Asm.parse asm in
  let img = Isa.Program.resolve ?extra_data:memmap prog in
  let m = Xmtsim.Machine.create ~config img in
  let r = Xmtsim.Machine.run m in
  (r, m)

let run_asm_functional ?memmap asm =
  let prog = Isa.Asm.parse asm in
  let img = Isa.Program.resolve ?extra_data:memmap prog in
  Xmtsim.Functional_mode.run img

(** Path of [examples/name], for `dune runtest` (cwd = _build/default/test,
    where dune copies the examples the tests depend on) and for
    `dune exec` (cwd = project root), which copies none: the source tree
    is then three levels above the test executable. *)
let example name =
  let dir = Filename.dirname Sys.executable_name and up = Filename.parent_dir_name in
  let under levels =
    List.fold_left Filename.concat dir (List.init levels (fun _ -> up) @ [ "examples"; name ])
  in
  if Sys.file_exists (under 1) then under 1 else under 3

(** A spawn of eight virtual threads, each running [body] with its id
    in [$t2], then the master prints the sum of the eight words at [A]. *)
let spawn_asm body =
  Printf.sprintf
    {|
main:
  li $t0, 0
  li $t1, 7
  spawn $t0, $t1
Ldisp:
  li $t2, 1
  ps $t2, $g8
  chkid $t2
%s
  j Ldisp
  join
  la $t0, A
  li $t1, 0
  li $t3, 0
Lsum:
  lw $t4, 0($t0)
  add $t1, $t1, $t4
  addi $t0, $t0, 4
  addi $t3, $t3, 1
  slti $t5, $t3, 8
  bnez $t5, Lsum
  pint $t1
  halt
  .data
A: .space 32
|}
    body

(** The README quickstart's array compaction, as CI's smoke steps write
    it to [compact.c]; prints 8. *)
let compact_c =
  {|int A[16] = {5, 0, 3, 0, 0, 7, 1, 0, 2, 0, 0, 4, 9, 0, 6, 0};
int B[16];
int base = 0;
int main(void) {
  spawn(0, 15) {
    int inc = 1;
    if (A[$] != 0) { ps(inc, base); B[inc] = A[$]; }
  }
  print_int(base);
  return 0;
}
|}

(** Threads prefetch lines they never load, so the replies reach the
    cluster return queues after the join, with no spawn active (all 64
    of them on chip1024, 11 on tiny): the serial cluster-sweep skip must
    still drain them. *)
let prefetch_after_join_asm =
  {|
main:
  li $t0, 0
  li $t1, 63
  spawn $t0, $t1
Ld:
  li $t2, 1
  ps $t2, $g8
  chkid $t2
  la $t3, A
  sll $t4, $t2, 6
  add $t3, $t3, $t4
  pref 0($t3)
  j Ld
  join
  li $t5, 400
Lspin:
  addi $t5, $t5, -1
  bnez $t5, Lspin
  pint $t5
  halt
  .data
A: .space 4096
|}

(** Eight virtual threads store the squares of their ids; prints 140. *)
let squares_asm =
  spawn_asm "la $t3, A\n  sll $t4, $t2, 2\n  add $t3, $t3, $t4\n  mul $t5, $t2, $t2\n  sw.nb $t5, 0($t3)"

(** A spawn, four psm rounds and a serial tail: the clusters sleep and
    wake several times.  Reads [A[128]]. *)
let mix_src =
  {|
int A[128];
int total = 0;
int main(void) {
  int r;
  int acc = 0;
  for (r = 0; r < 4; r++) {
    spawn(0, 127) {
      int v = A[$] + r;
      psm(v, total);
    }
  }
  for (r = 0; r < 64; r++) {
    acc = acc + A[(r * 97) % 128];
  }
  print_int(total + acc);
  return 0;
}
|}

(** Six spawn rounds of psm: a checkpoint halfway lands between rounds. *)
let rounds_src =
  {|
int A[128];
int total = 0;
int main(void) {
  int r;
  for (r = 0; r < 6; r++) {
    spawn(0, 127) {
      int v = A[$] + r;
      psm(v, total);
    }
  }
  print_int(total);
  return 0;
}
|}

let vecadd_job ?mode ?seed n =
  let name = Printf.sprintf "vecadd-%d" n in
  (name, Core.Toolchain.job ~name ?mode ?seed ~config:Xmtsim.Config.tiny (Core.Kernels.vecadd ~n))

(** Nine campaign jobs over distinct sizes, seeds and modes: enough to
    interleave. *)
let det_specs () =
  List.concat
    [
      List.map (fun n -> vecadd_job n) [ 16; 24; 32; 48 ];
      List.map (fun n -> vecadd_job ~seed:(n * 7) n) [ 20; 28 ];
      List.map (fun n -> vecadd_job ~mode:Core.Toolchain.Functional n) [ 16; 40 ];
      [ vecadd_job 64 ];
    ]

(** [n] tiny jobs over a handful of distinct sources: lots of work
    stealing, few distinct compile keys. *)
let stress_specs n =
  List.init n (fun i ->
      let mode = if i mod 5 = 0 then Core.Toolchain.Functional else Core.Toolchain.Cycle in
      let name = Printf.sprintf "s%03d" i in
      ( name,
        Core.Toolchain.job ~name ~mode ~seed:i ~config:Xmtsim.Config.tiny
          (Core.Kernels.vecadd ~n:(16 + (i mod 4 * 8))) ))

(** Four jobs, one of which fails to compile. *)
let failing_specs () =
  let boom = "int main() { return undeclared_thing; }" in
  [ vecadd_job 16; vecadd_job ~seed:7 24; vecadd_job ~mode:Core.Toolchain.Functional 16;
    ("boom", Core.Toolchain.job ~name:"boom" ~config:Xmtsim.Config.tiny boom) ]

(* ------------------------------------------------------------------ *)
(* The equivalence oracle.  Every "this changes nothing" check runs a
   program two ways — functional vs cycle-accurate, gated vs ungated,
   observed vs plain, restored from a checkpoint file vs straight, a
   campaign on one worker vs several — and compares what the two runs
   show with {!agree}. *)

module M = Xmtsim.Machine

(** What one run shows. *)
type obs = {
  output : string;
  cycles : int;
  halted : bool;
  stats : string;  (** digest of the marshalled [Stats.t] *)
  metrics : string;
      (** digest of the [sim.*] metrics but [sim.clock.*] that
          [--export stats] exports, with per-cluster instruction counts *)
  report : string;  (** what the attached observers reported *)
  events : int;  (** host events processed *)
  samples : int;
      (** the most sample points any one activity plug-in took: all of
          them when the others' intervals are multiples of its own *)
  skipped : int;  (** cluster-clock ticks gating skipped *)
}

(** A probe or plug-in the oracle attaches: [attach m] hooks it onto [m]
    before the run and returns the reading to take after it, which
    exports the observer's metrics into the registry and returns its
    report and sample-point count. *)
type observer = { name : string; attach : M.t -> Obs.Metrics.t -> string * int }

let passive name attach =
  { name; attach = (fun m -> let report = attach m in fun _ -> (report (), 0)) }

(** Every probe the repo ships.  The stream heartbeat's records carry
    host rates, so it reports nothing here; its canonical stream is the
    campaign variant's business. *)
let probes =
  let text attach m =
    let b = Buffer.create 4096 in
    attach m (Buffer.add_string b);
    fun () -> Buffer.contents b
  in
  [
    passive "racecheck" (fun m ->
        let rd = Xmtsim.Racedetect.attach m in
        fun () -> Obs.Json.to_string (Xmtsim.Racedetect.to_json rd));
    passive "profile" (fun m ->
        let p = Xmtsim.Profile.attach m in
        fun () -> Obs.Json.to_string Xmtsim.Profile.(to_json (report p)));
    passive "spans" (fun m ->
        let tr = Obs.Tracer.create () in
        let sp = Xmtsim.Trace.attach_spans m tr in
        fun () -> Xmtsim.Trace.flush_spans sp; Obs.Tracer.to_string tr);
    passive "stream" (fun m ->
        let s = Obs.Stream.create (Obs.Stream.null_sink ()) in
        ignore (Xmtsim.Heartbeat.attach ~heartbeat_cycles:50 m s : unit -> unit);
        fun () -> "");
    passive "trace" (text (fun m sink -> Xmtsim.Trace.attach m sink));
    passive "trace-packages" (text (fun m sink -> Xmtsim.Trace.attach_packages m sink));
    passive "hot-locations" (fun m ->
        let f = Xmtsim.Plugin.hot_locations ~top:3 () in
        ignore (M.attach m f.Xmtsim.Plugin.probe : unit -> unit);
        f.Xmtsim.Plugin.report);
  ]

(* a sampler hook logging the sample's cycle and [%h] readings *)
let log_power log s c =
  Printf.bprintf log "power %d %h %h\n" c (Xmtsim.Sampler.temperature s) (Xmtsim.Sampler.watts s);
  []

(** The power sampler [xmtsim --power-interval 50] attaches (its
    printed readings) and the interval profiler on every other sample
    point; both only read, so the run is a plain one's plus a host event
    per sample point at most. *)
let sampling =
  {
    name = "sampling plug-ins";
    attach =
      (fun m ->
        let log = Buffer.create 4096 in
        let s = Xmtsim.Sampler.attach ~name:"power" ~interval:50 m (log_power log) in
        let p = Xmtsim.Plugin.attach_profiler ~interval:100 m in
        fun reg ->
          Xmtsim.Sampler.export s reg;
          Buffer.add_string log (Obs.Json.to_string (Xmtsim.Plugin.profile_to_json p));
          (Buffer.contents log, Xmtsim.Sampler.samples s));
  }

(** The governor [xmtsim --governor --governor-interval 50] attaches,
    reporting the decision log [--export stats] carries. *)
let governor =
  {
    name = "governor";
    attach =
      (fun m ->
        let g = Xmtsim.Governor.attach ~interval:50 m in
        fun reg ->
          Xmtsim.Governor.export g reg;
          (Obs.Json.to_string (Xmtsim.Governor.to_json g), Xmtsim.Governor.samples g));
  }

(** Plug-ins that retune clocks: a power sampler, a governor that
    throttles on long runs, the interval profiler and a raw hook setting
    the cluster period.  Its report is the samples' cycles and
    [%h]-printed readings, the decision log and the profile. *)
let retuning =
  {
    name = "retuning plug-ins";
    attach =
      (fun m ->
        let log = Buffer.create 4096 in
        let th = Xmtsim.Thermal.demo in
        let s =
          Xmtsim.Sampler.attach ~thermal_params:th ~name:"power" ~interval:100 m (log_power log)
        in
        let g = Xmtsim.Governor.attach ~thermal_params:th ~temp_hi:318.05 ~interval:150 m in
        let p = Xmtsim.Plugin.attach_profiler ~interval:250 m in
        M.add_activity_plugin m ~interval:400 (fun m c ->
            Printf.bprintf log "dvfs %d\n" c;
            if c mod 1200 = 0 then M.set_period m M.Clusters 1);
        fun reg ->
          Xmtsim.Sampler.export s reg;
          Xmtsim.Governor.export g reg;
          List.iter
            (fun d ->
              Xmtsim.Governor.(
                Printf.bprintf log "gov %d %s %d %d %s %h %h\n" d.d_cycle d.d_domain d.d_from
                  d.d_to d.d_reason d.d_temp_k d.d_icn_backlog))
            (Xmtsim.Governor.decisions g);
          Buffer.add_string log (Obs.Json.to_string (Xmtsim.Plugin.profile_to_json p));
          (Buffer.contents log, Xmtsim.Sampler.samples s));
  }

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
let stats_digest (s : Xmtsim.Stats.t) = digest s

(* [reg]'s [sim.*] metrics but [sim.clock.*], after {!Xmtsim.Stats.export},
   with the per-cluster instruction counts behind [--export stats]'s
   [sim.cluster.instructions] *)
let sim_metrics m reg =
  Xmtsim.Stats.export (M.stats m) reg;
  let sim { Obs.Metrics.m_name = n; _ } =
    String.starts_with ~prefix:"sim." n && not (String.starts_with ~prefix:"sim.clock." n)
  in
  digest (List.filter sim (Obs.Metrics.snapshot reg), M.cluster_activity m)

(** Run [image] on [config] ([gated] by default) with [observers]
    attached.  With [resume_at], run to that cycle (if past 0) and on to
    the next quiescent point, checkpoint through a file, check that the
    restored machine carries the checkpointed [Stats.t] and [sim.*]
    metrics, and finish the run in it (observers attach to that one). *)
let observe ?(gated = true) ?(observers = []) ?resume_at config image =
  let machine () =
    let m = M.create ~config image in
    M.set_gating m gated;
    m
  in
  let before, m =
    match resume_at with
    | None -> (0, machine ())
    | Some cycle ->
      let first = machine () in
      if cycle > 0 then begin
        ignore (M.run ~max_cycles:cycle first);
        M.run_to_quiescent first
      end;
      let path = Filename.temp_file "oracle" ".snap" in
      M.snapshot_to_file (M.checkpoint first) path;
      let snap = M.snapshot_of_file path in
      Sys.remove path;
      let m = machine () in
      M.restore m snap;
      let carried what f =
        check_string
          (Printf.sprintf "%s restored at cycle %d on %s" what (M.cycles first) config.Xmtsim.Config.name)
          (f first) (f m)
      in
      carried "Stats.t" (fun m -> stats_digest (M.stats m));
      carried "sim.* metrics" (fun m -> sim_metrics m (Obs.Metrics.create ()));
      (M.cycles first, m)
  in
  let readings = List.map (fun o -> o.attach m) observers in
  let r = M.run m in
  let reg = Obs.Metrics.create () in
  let seen = List.map (fun read -> read reg) readings in
  let clocks = Obs.Metrics.create () in
  M.export_clocks m clocks;
  {
    output = r.M.output;
    cycles = before + r.M.cycles;
    halted = r.M.halted;
    stats = stats_digest (M.stats m);
    metrics = sim_metrics m reg;
    report = String.concat "\n" (List.map fst seen);
    events = M.events_processed m;
    samples = List.fold_left (fun n (_, s) -> max n s) 0 seen;
    skipped =
      Option.value ~default:0
        (Obs.Metrics.counter_value clocks ~labels:[ ("domain", "clusters") ]
           "sim.clock.skipped_ticks");
  }

(** The serializing functional mode's run of [image]: its output only. *)
let observe_functional image =
  let output = (Xmtsim.Functional_mode.run image).Xmtsim.Functional_mode.output in
  { output; cycles = 0; halted = true; stats = ""; metrics = ""; report = ""; events = 0;
    samples = 0; skipped = 0 }

(** The fields two runs must share: the output and halt state; then
    also cycles and [Stats.t] ([Run]); then also the [sim.*] metrics
    ([Sim]); then also the observers' reports ([All]). *)
type fields = Output | Run | Sim | All

(** How host events must relate: [a] processed as many as [b], strictly
    fewer (gated vs ungated), at most [b]'s plus [a]'s sample points
    (a gated run with activity plug-ins vs a plain one), or anything. *)
type events = Equal | Fewer | Plus_samples | Any

(** [agree ~fields ~events what a b] checks observation [a] against the
    reference [b]. *)
let agree ~fields ~events what a b =
  check_string (what ^ " output") b.output a.output;
  check_bool (what ^ " halted") b.halted a.halted;
  let level = function Output -> 0 | Run -> 1 | Sim -> 2 | All -> 3 in
  if level fields >= 1 then begin
    check_int (what ^ " cycles") b.cycles a.cycles;
    check_string (what ^ " Stats.t") b.stats a.stats
  end;
  if level fields >= 2 then check_string (what ^ " sim.* metrics") b.metrics a.metrics;
  if level fields >= 3 then check_string (what ^ " report") b.report a.report;
  let holds, rel =
    match events with
    | Equal -> (a.events = b.events, "=")
    | Fewer -> (a.events < b.events, "<")
    | Plus_samples -> (a.events <= b.events + a.samples, Printf.sprintf "<= %d samples +" a.samples)
    | Any -> (true, "")
  in
  if not holds then Alcotest.failf "%s host events: %d not %s %d" what a.events rel b.events

(** The activity plug-in variant on [image] and [config], whose plain
    gated run is [plain]: the CLI's sampling plug-ins leave a run as a
    plain one, plus a host event per sample point at most; with
    {!sampling}, {!governor} and {!retuning} attached, gated equals
    ungated in every field, and the idle cluster clock still sleeps
    if [sleeps].  [pin name report] sees the gated reports of
    {!sampling} alone and of all three.  Returns whether a governor
    throttled. *)
let plugins_keep_gating ?(pin = fun _ _ -> ()) ~sleeps what config image ~plain =
  let sampled = observe ~observers:[ sampling ] config image in
  agree ~fields:Run ~events:Plus_samples (what ^ " sampled vs plain") sampled plain;
  pin sampling.name sampled.report;
  let run gated = observe ~gated ~observers:[ sampling; governor; retuning ] config image in
  let g = run true and u = run false in
  pin retuning.name g.report;
  let what = what ^ " plug-ins" in
  agree ~fields:All ~events:Fewer what g u;
  if sleeps then check_bool (what ^ " cluster ticks skipped") true (g.skipped > 0);
  List.mem "thermal-high" (String.split_on_char ' ' g.report)

(** A campaign's [report_to_json ~host:false] bytes and canonicalized
    stream. *)
let campaign ~jobs specs =
  let buf = Buffer.create 4096 in
  let s = Obs.Stream.create (Obs.Stream.buffer_sink buf) in
  let rs = Campaign.run ~jobs ~stream:s specs in
  Obs.Stream.close s;
  ( Obs.Json.to_string (Campaign.report_to_json ~host:false rs),
    Obs.Stream.canonicalize_lines (Buffer.contents buf) )

(** The [report_to_json ~host:false] bytes of [specs] run one by one
    through {!Core.Toolchain.run_job} without an artifact cache, one
    attempt each: every job compiles, and a predict job harvests, for
    itself. *)
let alone specs =
  List.mapi
    (fun r_index (r_name, job) ->
      let r_outcome =
        match Core.Toolchain.run_job job with
        | run -> Ok run
        | exception e -> Error { Campaign.f_exn = Printexc.to_string e; f_backtrace = "" }
      in
      { Campaign.r_index; r_name; r_job = job; r_attempts = 1; r_wall_seconds = 0.0; r_outcome })
    specs
  |> Array.of_list |> Campaign.report_to_json ~host:false |> Obs.Json.to_string

(** The campaign variant: [specs] on one worker report what they do run
    alone, with nothing shared; on each of [workers] (by default 2, 4
    and more workers than jobs) they report and stream exactly what they
    do on one. *)
let agree_campaign ?workers what specs =
  let report, stream = campaign ~jobs:1 specs in
  check_string (what ^ " report, nothing shared") (alone specs) report;
  check_bool (what ^ " stream non-empty") true (stream <> "");
  List.iter
    (fun jobs ->
      let r, s = campaign ~jobs specs in
      check_string (Printf.sprintf "%s report, %d workers" what jobs) report r;
      check_string (Printf.sprintf "%s canonical stream, %d workers" what jobs) stream s)
    (Option.value workers ~default:[ 2; 4; List.length specs + 1 ])
