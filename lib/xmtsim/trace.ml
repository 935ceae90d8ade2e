(** Execution traces (paper §III-E), all passive {!Probe}s.

    Functional-level traces show the executed instructions; filters
    restrict to specific TCUs and/or instruction classes.  The
    cycle-accurate (package-level) trace shows every station a package
    passes.  Lines go to the given sink (e.g. [Buffer.add_string buf] or
    [print_string]); when a limit is reached the trace detaches itself,
    so a bounded trace costs nothing for the rest of a long run.  The
    span trace emits Chrome trace-event JSON into an {!Obs.Tracer}. *)

type filter = {
  tcus : int list option;  (** [None] = all; Master TCU is -1 *)
  classes : Isa.Instr.fu_class list option;
  limit : int;  (** stop recording after this many lines; <=0 = unlimited *)
}

let all = { tcus = None; classes = None; limit = 0 }

(* Attach [mk record] and count the lines it records, detaching at
   [limit]. *)
let attach_limited machine ~limit mk =
  let count = ref 0 in
  let detach = ref (fun () -> ()) in
  let record () =
    incr count;
    if limit > 0 && !count >= limit then !detach ()
  in
  detach := Machine.attach machine (mk record)

let attach ?(filter = all) machine sink =
  attach_limited machine ~limit:filter.limit (fun record ->
      {
        Probe.nop with
        name = "trace";
        issue =
          (fun ~tcu ~pc ins ~addr:_ ->
            if
              (match filter.tcus with None -> true | Some l -> List.mem tcu l)
              && match filter.classes with
                 | None -> true
                 | Some l -> List.mem (Isa.Instr.fu_class_of ins) l
            then begin
              let who = if tcu < 0 then "MTCU" else Printf.sprintf "TCU%-4d" tcu in
              sink
                (Printf.sprintf "%8d %s pc=%-5d %s\n" (Machine.cycles machine) who pc
                   (Isa.Instr.to_string ins));
              record ()
            end);
      })

(** Attach the cycle-accurate (package-level) trace: one line per station
    an instruction/data package travels through (§III-E).  [addr] limits
    the trace to packages touching that address. *)
let attach_packages ?addr ?(limit = 0) machine sink =
  attach_limited machine ~limit (fun record ->
      {
        Probe.nop with
        name = "trace-packages";
        package =
          (fun ~stage ~kind ~addr:a ~tcu ~pc ~module_ ->
            if match addr with Some x -> a = x || stage = "dram-fill" | None -> true
            then begin
              sink
                (Printf.sprintf "%8d %-13s %-9s addr=0x%-6x tcu=%-4d pc=%-5d module=%d\n"
                   (Machine.cycles machine) stage kind a tcu pc module_);
              record ()
            end);
      })

(* ------------------------------------------------------------------ *)
(* Span trace (Chrome trace-event JSON, §III-B/E as Perfetto tracks).
   Track layout on the sim process: master TCU = tid 0, TCU i = tid i+1,
   then one "memory" track for unattributable package events and one for
   runtime-control (governor) decisions. *)

type spans = {
  m : Machine.t;
  tr : Obs.Tracer.t;
  mw_since : int array;  (** per TCU: open memory/fence-wait span start, or -1 *)
  run_since : int array;  (** per TCU: open spawn-activation..done span, or -1 *)
  mutable in_spawn : bool;  (** the master's spawn span is open *)
}

let tid_of_tcu tcu = tcu + 1
let n_tcus cfg = cfg.Config.num_clusters * cfg.Config.tcus_per_cluster
let tid_memory cfg = n_tcus cfg + 1

(** Trace thread id reserved for runtime-control (governor) events. *)
let tid_governor cfg = tid_memory cfg + 1

let close sp since ~tcu name =
  let now = Machine.cycles sp.m in
  Obs.Tracer.complete sp.tr ~ts:since.(tcu) ~dur:(now - since.(tcu)) ~tid:(tid_of_tcu tcu)
    ~cat:"tcu" name;
  since.(tcu) <- -1

let close_memwait sp ~tcu = if sp.mw_since.(tcu) >= 0 then close sp sp.mw_since ~tcu "memwait"

let close_all sp ~tcu =
  close_memwait sp ~tcu;
  if sp.run_since.(tcu) >= 0 then close sp sp.run_since ~tcu "tcu-run"

let spans_probe sp =
  let cfg = Machine.config sp.m in
  {
    Probe.nop with
    name = "spans";
    (* a memwait span opens on a memory or fence wait's first waiting
       tick and closes at the TCU's next issue or stall *)
    issue = (fun ~tcu ~pc:_ _ ~addr:_ -> if tcu >= 0 then close_memwait sp ~tcu);
    stall = (fun ~tcu ~pc:_ -> close_memwait sp ~tcu);
    wait =
      (fun ~tcu w ->
        match w with
        | Probe.Mem | Probe.Fence -> sp.mw_since.(tcu) <- Machine.cycles sp.m
        | Probe.Fu | Probe.Ps -> ());
    (* package hops as instant events on the originating TCU's track *)
    package =
      (fun ~stage ~kind ~addr ~tcu ~pc:_ ~module_ ->
        Obs.Tracer.instant sp.tr ~ts:(Machine.cycles sp.m)
          ~tid:(if tcu >= 0 then tid_of_tcu tcu else tid_memory cfg)
          ~cat:"pkg"
          ~args:
            [ ("kind", Obs.Tracer.A_str kind); ("addr", Obs.Tracer.A_int addr);
              ("module", Obs.Tracer.A_int module_) ]
          stage);
    (* one "mem-req" span per request: its outbox -> ICN -> module ->
       reply round trip, with per-stage durations *)
    reply =
      (fun ~kind ~tcu ~addr lc ->
        let now = Machine.cycles sp.m in
        Obs.Tracer.complete sp.tr ~ts:lc.l_born ~dur:(now - lc.l_born)
          ~tid:(if tcu >= 0 then tid_of_tcu tcu else tid_memory cfg)
          ~cat:"mem"
          ~args:
            [ ("kind", Obs.Tracer.A_str kind); ("addr", Obs.Tracer.A_int addr);
              ("module", Obs.Tracer.A_int lc.l_mod);
              ("hit", Obs.Tracer.A_int (if lc.l_hit then 1 else 0));
              ("icn_wait", Obs.Tracer.A_int lc.l_icn_wait);
              ("service", Obs.Tracer.A_int (lc.l_svc - lc.l_arrive));
              ("reply", Obs.Tracer.A_int (now - lc.l_svc)) ]
          "mem-req");
    spawn =
      (fun ~lo ~hi ->
        let now = Machine.cycles sp.m in
        Obs.Tracer.begin_span sp.tr ~ts:now ~tid:0 ~cat:"spawn"
          ~args:
            [ ("lo", Obs.Tracer.A_int lo); ("hi", Obs.Tracer.A_int hi);
              ("threads", Obs.Tracer.A_int (hi - lo + 1)) ]
          "spawn";
        sp.in_spawn <- true;
        Array.fill sp.run_since 0 (Array.length sp.run_since) now);
    join =
      (fun ~pc:_ ->
        Obs.Tracer.end_span sp.tr ~ts:(Machine.cycles sp.m) ~tid:0 ();
        sp.in_spawn <- false);
    tcu_done = (fun ~tcu -> close_all sp ~tcu);
  }

(** Attach a span trace.  Simulated activity is emitted on process 1:
    spawn/join phases as nested B/E spans on the master's track,
    per-TCU memory-wait and thread-run intervals as complete (X) spans,
    package hops as instant events, and one "mem-req" span per completed
    memory request.  Timestamps are simulated time units. *)
let attach_spans m tr =
  let cfg = Machine.config m in
  let n = n_tcus cfg in
  Obs.Tracer.name_process tr ~pid:1 "xmtsim (ts = simulated time units)";
  Obs.Tracer.name_thread tr ~pid:1 ~tid:0 "MTCU";
  for tcu = 0 to n - 1 do
    Obs.Tracer.name_thread tr ~pid:1 ~tid:(tid_of_tcu tcu) (Printf.sprintf "TCU %d" tcu)
  done;
  Obs.Tracer.name_thread tr ~pid:1 ~tid:(tid_memory cfg) "memory";
  Obs.Tracer.name_thread tr ~pid:1 ~tid:(tid_governor cfg) "governor";
  let sp =
    { m; tr; mw_since = Array.make n (-1); run_since = Array.make n (-1); in_spawn = false }
  in
  ignore (Machine.attach m (spans_probe sp) : unit -> unit);
  sp

(** Close spans still open (waiting TCUs, an active spawn) at the current
    simulated time.  Call once after the final run, before writing the
    trace. *)
let flush_spans sp =
  Array.iteri (fun tcu _ -> close_all sp ~tcu) sp.run_since;
  if sp.in_spawn then begin
    Obs.Tracer.end_span sp.tr ~ts:(Machine.cycles sp.m) ~tid:0 ();
    sp.in_spawn <- false
  end
