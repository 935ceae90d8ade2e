module I = Isa.Instr
module F = Funcmodel
module V = Isa.Value

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

type dst = [ `I of int | `F of int ]

(* Requests travelling cluster -> ICN -> cache module ("packages").
   Each carries the pc of the issuing instruction so every memory-touching
   event exposes (address, tcu, pc) to the probes. *)
type req =
  | Rload of { cl : int; tcu : int; dst : dst; ro : bool; pc : int }
  | Rpref of { cl : int; tcu : int; pc : int }
  | Rstore of { cl : int; tcu : int; value : V.t; nb : bool; pc : int }
  | Rpsm of { cl : int; tcu : int; inc : int; dst : int; pc : int }

(* Each package carries its lifecycle stamps, read once at reply
   delivery to feed the per-(cluster, module) latency histograms and the
   probes. *)
type pkg = { addr : int; req : req; lc : Probe.lifecycle }

(* Replies travelling back module -> ICN -> cluster; each carries its
   request's lifecycle so delivery can close the loop. *)
type reply =
  | Pload of { tcu : int; dst : dst; v : V.t; ro : bool; addr : int; pc : int }
  | Ppref of { tcu : int; v : V.t; addr : int; pc : int }
  | Pack of { tcu : int; nb : bool; addr : int; pc : int }
  | Ppsm of { tcu : int; dst : int; old : int; addr : int; pc : int }

type reply_env = { rp : reply; r_lc : Probe.lifecycle }

type tcu_state =
  | Tidle
  | Trun
  | Tmemwait
  | Tfuwait of int
  | Tpswait
  | Tfence
  | Tdone

type tcu = {
  tid : int;
  tcl : int;
  ctx : F.ctx;
  mutable st : tcu_state;
  mutable pending : int;
  pbuf : Prefetch_buffer.t;
}

type cluster = {
  cid : int;
  ctcus : tcu array;
  mdu : int array;  (* busy-until times per shared unit *)
  fpu : int array;
  outbox : pkg Queue.t;
  returns : reply_env Queue.t;
  rocache : Tags.t;
  mutable rr : int;
}

type master_state = Mrun | Mstall of int | Mmemwait | Mspawnwait | Mhalted

type mshr_entry = { mutable waiters : pkg list (* reversed *) }

type cache_module = {
  mid : int;
  inq : pkg Queue.t;
  tags : Tags.t;
  mshr : (int, mshr_entry) Hashtbl.t;  (* line addr -> waiters *)
}

type t = {
  cfg : Config.t;
  img : Isa.Program.image;
  sched : Desim.Scheduler.t;
  clk_cluster : Desim.Clock.t;
  clk_icn : Desim.Clock.t;
  clk_cache : Desim.Clock.t;
  clk_dram : Desim.Clock.t;
  memory : Mem.t;
  globals : int array;
  stats : Stats.t;
  out_buf : Buffer.t;
  clusters : cluster array;
  modules : cache_module array;
  dram_q : (int * pkg) Queue.t;  (* (module, package) awaiting a DRAM slot *)
  master : F.ctx;
  master_cache : Tags.t;
  mutable master_st : master_state;
  mutable halted : bool;
  (* spawn state *)
  mutable spawn_active : bool;
  mutable spawn_bound : int;
  mutable spawn_region : int * int;  (* (spawn_idx, join_idx) *)
  mutable done_count : int;
  mutable pending_total : int;
  join_of : (int, int) Hashtbl.t;
  jitter : int array array;  (* per (cluster, module) arbitration jitter *)
  cluster_instrs : int array;  (* executed instructions per cluster *)
  icn_next_free : int array array;
      (* mesh-of-trees merge contention: per (module, subtree side), the
         earliest cycle at which the next packet can be delivered.  Each
         module accepts one packet per cycle per subtree half; packets from
         different halves may freely invert, packets from the same source
         keep their order (memory-model rule 1). *)
  mutable probes : Probe.t list;  (* attached, oldest first *)
  mutable probe : Probe.t;  (* their combined fan-out *)
  (* hook-site guards: some probe is attached / listens to the per-tick
     events (issue, stall, wait) / listens to package stations *)
  mutable probed : bool;
  mutable ticked : bool;
  mutable packaged : bool;
  mutable started : bool;
  (* clock gating *)
  mutable gating : bool;
  mutable has_plugin : bool;
      (* activity plug-ins sample on cluster ticks; cluster gating would
         change their sampling times, so it is disabled when one attaches *)
  mutable dram_fills : int;  (* DRAM line fills in flight *)
}

type result = { output : string; cycles : int; halted : bool }

(* ------------------------------------------------------------------ *)

(* Hashing on the address avoids module hotspots (paper §II); a simple
   multiplicative hash degenerates for power-of-two module counts, so mix
   the line number properly (SplitMix64 finalizer). *)
let hash_addr cfg addr =
  let line = addr / (4 * cfg.Config.cache_line_words) in
  let z = Int64.mul (Int64.of_int line) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  Int64.to_int (Int64.shift_right_logical z 3) mod cfg.Config.num_cache_modules

let compute_join_map img =
  let join_of = Hashtbl.create 8 in
  let open_spawn = ref None in
  Array.iteri
    (fun i ins ->
      match ins with
      | I.Spawn _ -> (
        match !open_spawn with
        | Some _ -> fail "nested spawn in program text at %d" i
        | None -> open_spawn := Some i)
      | I.Join -> (
        match !open_spawn with
        | Some s ->
          Hashtbl.replace join_of s i;
          open_spawn := None
        | None -> fail "join without spawn at %d" i)
      | _ -> ())
    img.Isa.Program.instrs;
  (match !open_spawn with Some s -> fail "unmatched spawn at %d" s | None -> ());
  join_of

let create ?(config = Config.fpga64) img =
  let cfg = config in
  let sched = Desim.Scheduler.create () in
  let clk name period = Desim.Clock.create sched ~name ~period in
  let rng = Desim.Rng.create ~seed:cfg.Config.seed in
  let jitter =
    Array.init cfg.Config.num_clusters (fun _ ->
        Array.init cfg.Config.num_cache_modules (fun _ ->
            if cfg.Config.icn_jitter <= 0 then 0
            else Desim.Rng.int rng (cfg.Config.icn_jitter + 1)))
  in
  let clusters =
    Array.init cfg.Config.num_clusters (fun cid ->
        {
          cid;
          ctcus =
            Array.init cfg.Config.tcus_per_cluster (fun k ->
                {
                  tid = (cid * cfg.Config.tcus_per_cluster) + k;
                  tcl = cid;
                  ctx = F.make_ctx ();
                  st = Tidle;
                  pending = 0;
                  pbuf =
                    Prefetch_buffer.create ~size:cfg.Config.prefetch_buffer_size
                      ~policy:cfg.Config.prefetch_policy;
                });
          mdu = Array.make (max 1 cfg.Config.mdus_per_cluster) 0;
          fpu = Array.make (max 1 cfg.Config.fpus_per_cluster) 0;
          outbox = Queue.create ();
          returns = Queue.create ();
          rocache =
            Tags.create ~lines:cfg.Config.rocache_lines ~assoc:2
              ~line_words:cfg.Config.cache_line_words;
          rr = 0;
        })
  in
  let modules =
    Array.init cfg.Config.num_cache_modules (fun mid ->
        {
          mid;
          inq = Queue.create ();
          tags =
            Tags.create ~lines:cfg.Config.cache_lines ~assoc:cfg.Config.cache_assoc
              ~line_words:cfg.Config.cache_line_words;
          mshr = Hashtbl.create 16;
        })
  in
  let master = F.make_ctx () in
  master.F.pc <- img.Isa.Program.entry;
  let stats = Stats.create () in
  stats.Stats.req_lat <-
    Some
      (Stats.make_req_latency ~clusters:cfg.Config.num_clusters
         ~modules:cfg.Config.num_cache_modules);
  {
    cfg;
    img;
    sched;
    clk_cluster = clk "clusters" cfg.Config.cluster_period;
    clk_icn = clk "icn" cfg.Config.icn_period;
    clk_cache = clk "caches" cfg.Config.cache_period;
    clk_dram = clk "dram" cfg.Config.dram_period;
    memory = Mem.load img;
    globals = Array.make Isa.Reg.num_globals 0;
    stats;
    out_buf = Buffer.create 256;
    clusters;
    modules;
    dram_q = Queue.create ();
    master;
    master_cache =
      Tags.create ~lines:cfg.Config.master_cache_lines ~assoc:2
        ~line_words:cfg.Config.cache_line_words;
    master_st = Mrun;
    halted = false;
    spawn_active = false;
    spawn_bound = -1;
    spawn_region = (-1, -1);
    done_count = 0;
    pending_total = 0;
    join_of = compute_join_map img;
    jitter;
    icn_next_free =
      Array.init cfg.Config.num_cache_modules (fun _ -> Array.make 2 0);
    cluster_instrs = Array.make cfg.Config.num_clusters 0;
    probes = [];
    probe = Probe.nop;
    probed = false;
    ticked = false;
    packaged = false;
    started = false;
    gating = true;
    has_plugin = false;
    dram_fills = 0;
  }

(* diagnostic: per-(module,side) send-side backlog in cycles *)
let icn_backlog t =
  let now = Desim.Scheduler.now t.sched in
  Array.map (fun sides -> Array.map (fun nf -> max 0 (nf - now)) sides) t.icn_next_free

(* executed TCU instructions per cluster (for spatial activity/power) *)
let cluster_activity t = Array.copy t.cluster_instrs

let config t = t.cfg
let image t = t.img
let stats t = t.stats
let output t = Buffer.contents t.out_buf
let cycles t = Desim.Scheduler.now t.sched
let mem t = t.memory
let globals t = t.globals

(* host-side throughput: events processed by the desim scheduler *)
let events_processed t = Desim.Scheduler.events_processed t.sched
let started t = t.started
let cluster_ticks t = Desim.Clock.cycles t.clk_cluster + Desim.Clock.skipped_ticks t.clk_cluster

(* ------------------------------------------------------------------ *)
(* Probe hook sites.  Every site is guarded by one flag, so a run with
   nothing attached pays one branch per site: no list walk, no closure
   call, no allocation.  The hottest events have flags of their own, so
   a probe that ignores them (race detector, heartbeat) skips them too. *)

let emit_pkg t ~stage pk ~m =
  if t.packaged then
    let kind, tcu, pc =
      match pk.req with
      | Rload { tcu; pc; _ } -> ("load", tcu, pc)
      | Rpref { tcu; pc; _ } -> ("pref", tcu, pc)
      | Rstore { tcu; pc; _ } -> ("store", tcu, pc)
      | Rpsm { tcu; pc; _ } -> ("psm", tcu, pc)
    in
    t.probe.Probe.package ~stage ~kind ~addr:pk.addr ~tcu ~pc ~module_:m

(* memory address an issued instruction touches, or -1 *)
let addr_of_result = function
  | F.Load { addr; _ } | F.Store { addr; _ } | F.Psm { addr; _ } | F.Prefetch { addr } ->
    addr
  | _ -> -1

(* ------------------------------------------------------------------ *)
(* ICN transport: event-per-package with per-(cluster,module) jitter that
   preserves same-source-same-destination FIFO ordering (memory model
   rule 1: static routing keeps per-pair order). *)

(* Build a request package, stamping its birth (outbox-enqueue) time. *)
let mk_pkg t addr req =
  {
    addr;
    req;
    lc =
      {
        l_born = Desim.Scheduler.now t.sched;
        l_icn_wait = 0;
        l_arrive = 0;
        l_svc = 0;
        l_mod = -1;
        l_hit = false;
      };
  }

let icn_send t ~cl pk =
  let m = hash_addr t.cfg pk.addr in
  let now = Desim.Scheduler.now t.sched in
  let side = if cl < Array.length t.clusters / 2 then 0 else 1 in
  let uncontended =
    now + (t.cfg.Config.icn_latency * Desim.Clock.period t.clk_icn)
    + t.jitter.(cl).(m)
  in
  let arrival = max uncontended t.icn_next_free.(m).(side) in
  t.icn_next_free.(m).(side) <- arrival + 1;
  t.stats.Stats.icn_packets <- t.stats.Stats.icn_packets + 1;
  pk.lc.l_mod <- m;
  pk.lc.l_icn_wait <- arrival - uncontended;
  emit_pkg t ~stage:"icn-inject" pk ~m;
  Desim.Scheduler.schedule t.sched ~prio:Desim.Scheduler.prio_transfer
    ~delay:(arrival - now) (fun () ->
      pk.lc.l_arrive <- Desim.Scheduler.now t.sched;
      emit_pkg t ~stage:"module-arrive" pk ~m;
      Queue.add pk t.modules.(m).inq;
      (* arrival runs at prio_transfer: the cache tick at this instant (if
         any) already popped, so a sleeping cache domain resumes one period
         later — exactly when an ungated cache would next see the package *)
      Desim.Clock.wake t.clk_cache)

let icn_reply t ~mid ~cl renv =
  let delay =
    (t.cfg.Config.icn_latency * Desim.Clock.period t.clk_icn) + t.jitter.(cl).(mid)
  in
  t.stats.Stats.icn_packets <- t.stats.Stats.icn_packets + 1;
  renv.r_lc.l_svc <- Desim.Scheduler.now t.sched;
  Desim.Scheduler.schedule t.sched ~prio:Desim.Scheduler.prio_transfer ~delay
    (fun () ->
      Queue.add renv t.clusters.(cl).returns;
      Desim.Clock.wake t.clk_cluster)

(* ------------------------------------------------------------------ *)
(* Join logic *)

let total_tcus t = Array.length t.clusters * t.cfg.Config.tcus_per_cluster

let maybe_join t =
  if t.spawn_active && t.done_count = total_tcus t && t.pending_total = 0 then begin
    t.spawn_active <- false;
    Array.iter (fun cl -> Array.iter (fun u -> u.st <- Tidle) cl.ctcus) t.clusters;
    let _, join_idx = t.spawn_region in
    let delay = t.cfg.Config.join_overhead * Desim.Clock.period t.clk_cluster in
    Desim.Scheduler.schedule t.sched ~delay (fun () ->
        (* master cache may hold lines the TCUs overwrote *)
        Tags.invalidate_all t.master_cache;
        Stats.count_instr t.stats ~master:true I.Join;
        t.master.F.pc <- join_idx + 1;
        t.master_st <- Mrun;
        Desim.Clock.wake t.clk_cluster;
        if t.probed then t.probe.Probe.join ~pc:join_idx)
  end

(* ------------------------------------------------------------------ *)
(* Cache modules and DRAM *)

let service_pkg t (m : cache_module) pk =
  (* perform the functional memory effect now and produce the reply *)
  let reply rp ~extra_delay cl =
    Desim.Scheduler.schedule t.sched ~delay:extra_delay (fun () ->
        icn_reply t ~mid:m.mid ~cl { rp; r_lc = pk.lc })
  in
  let hit_lat = t.cfg.Config.cache_hit_latency * Desim.Clock.period t.clk_cache in
  match pk.req with
  | Rload { cl; tcu; dst; ro; pc } ->
    let v = Mem.read t.memory pk.addr in
    if t.probed then t.probe.Probe.read ~tcu ~pc ~addr:pk.addr;
    reply (Pload { tcu; dst; v; ro; addr = pk.addr; pc }) ~extra_delay:hit_lat cl
  | Rpref { cl; tcu; pc } ->
    let v = Mem.read t.memory pk.addr in
    if t.probed then t.probe.Probe.read ~tcu ~pc ~addr:pk.addr;
    reply (Ppref { tcu; v; addr = pk.addr; pc }) ~extra_delay:hit_lat cl
  | Rstore { cl; tcu; value; nb; pc } ->
    Mem.write t.memory pk.addr value;
    if t.probed then t.probe.Probe.write ~tcu ~pc ~addr:pk.addr;
    reply (Pack { tcu; nb; addr = pk.addr; pc }) ~extra_delay:hit_lat cl
  | Rpsm { cl; tcu; inc; dst; pc } ->
    let old = Mem.fetch_add t.memory pk.addr inc in
    t.stats.Stats.psm_ops <- t.stats.Stats.psm_ops + 1;
    (* the psm word itself is the ordering primitive, not a plain access *)
    if t.probed then t.probe.Probe.sync ~tcu;
    reply (Ppsm { tcu; dst; old; addr = pk.addr; pc }) ~extra_delay:hit_lat cl

let dram_fill t (m : cache_module) line =
  Tags.install m.tags line;
  if t.packaged then
    t.probe.Probe.package ~stage:"dram-fill" ~kind:"line" ~addr:line ~tcu:(-1) ~pc:(-1)
      ~module_:m.mid;
  match Hashtbl.find_opt m.mshr line with
  | None -> ()
  | Some entry ->
    Hashtbl.remove m.mshr line;
    List.iter (fun pk -> service_pkg t m pk) (List.rev entry.waiters)

let module_tick t (m : cache_module) =
  for _ = 1 to t.cfg.Config.cache_ports do
    match Queue.take_opt m.inq with
    | None -> ()
    | Some pk ->
      let line = Tags.line_of m.tags pk.addr in
      if Tags.lookup m.tags pk.addr then begin
        t.stats.Stats.cache_hits <- t.stats.Stats.cache_hits + 1;
        pk.lc.l_hit <- true;
        emit_pkg t ~stage:"cache-hit" pk ~m:m.mid;
        service_pkg t m pk
      end
      else begin
        t.stats.Stats.cache_misses <- t.stats.Stats.cache_misses + 1;
        emit_pkg t ~stage:"cache-miss" pk ~m:m.mid;
        match Hashtbl.find_opt m.mshr line with
        | Some entry -> entry.waiters <- pk :: entry.waiters
        | None ->
          Hashtbl.replace m.mshr line { waiters = [ pk ] };
          Queue.add (m.mid, pk) t.dram_q;
          (* Called from a cache tick (prio_tick), so Clock.wake's default
             tie-break cannot tell whether the ungated DRAM tick at this
             instant already popped.  Same-time tick events pop in
             insertion order: the slower clock inserted its event earlier;
             equal periods preserve start order (cache before dram), so
             the DRAM tick pops after us and still sees the package. *)
          Desim.Clock.wake t.clk_dram
            ~tick_at_now:
              (Desim.Clock.period t.clk_dram <= Desim.Clock.period t.clk_cache)
      end
  done

let dram_tick t =
  for _ = 1 to t.cfg.Config.dram_bandwidth do
    match Queue.take_opt t.dram_q with
    | None -> ()
    | Some (mid, pk) ->
      t.stats.Stats.dram_reads <- t.stats.Stats.dram_reads + 1;
      let m = t.modules.(mid) in
      let line = Tags.line_of m.tags pk.addr in
      let delay = t.cfg.Config.dram_latency * Desim.Clock.period t.clk_dram in
      t.dram_fills <- t.dram_fills + 1;
      Desim.Scheduler.schedule t.sched ~delay (fun () ->
          t.dram_fills <- t.dram_fills - 1;
          dram_fill t m line)
  done

(* ------------------------------------------------------------------ *)
(* TCU execution *)

(* Close the request's lifecycle in the per-(cluster, module) latency
   histograms. *)
let observe_lifecycle t (cl : cluster) (lc : Probe.lifecycle) =
  match t.stats.Stats.req_lat with
  | None -> ()
  | Some rl ->
    let now = Desim.Scheduler.now t.sched in
    let obs stage v = Stats.observe_req rl stage ~cluster:cl.cid ~module_:lc.l_mod v in
    obs Stats.Licn_wait lc.l_icn_wait;
    obs (if lc.l_hit then Stats.Lservice_hit else Stats.Lservice_miss)
      (lc.l_svc - lc.l_arrive);
    obs Stats.Lreply (now - lc.l_svc);
    obs Stats.Ltotal (now - lc.l_born)

(* the reply ended [u]'s memory wait *)
let wake t (u : tcu) r_lc ~pref =
  if t.probed then t.probe.Probe.woken ~tcu:u.tid ~pref r_lc;
  u.st <- Trun

let deliver_reply t (cl : cluster) { rp; r_lc } =
  if t.probed then begin
    let kind, tcu, addr, pc =
      match rp with
      | Pload { tcu; addr; pc; _ } -> ("load", tcu, addr, pc)
      | Ppref { tcu; addr; pc; _ } -> ("pref", tcu, addr, pc)
      | Pack { tcu; nb; addr; pc } -> ((if nb then "store-ack" else "store"), tcu, addr, pc)
      | Ppsm { tcu; addr; pc; _ } -> ("psm", tcu, addr, pc)
    in
    t.probe.Probe.package ~stage:"reply" ~kind ~addr ~tcu ~pc ~module_:(-1);
    t.probe.Probe.reply ~kind ~tcu ~addr r_lc
  end;
  observe_lifecycle t cl r_lc;
  match rp with
  | Pload { tcu; dst; v; ro; addr; _ } ->
    let u = cl.ctcus.(tcu mod t.cfg.Config.tcus_per_cluster) in
    if ro then Tags.install cl.rocache addr;
    F.complete_load u.ctx dst v;
    if u.st = Tmemwait then wake t u r_lc ~pref:false
  | Ppref { tcu; v; addr; _ } -> (
    let u = cl.ctcus.(tcu mod t.cfg.Config.tcus_per_cluster) in
    match Prefetch_buffer.fill u.pbuf addr v with
    | None -> ()
    | Some dst ->
      F.complete_load u.ctx dst v;
      if u.st = Tmemwait then wake t u r_lc ~pref:true)
  | Pack { tcu; nb; _ } ->
    let u = cl.ctcus.(tcu mod t.cfg.Config.tcus_per_cluster) in
    if nb then begin
      u.pending <- u.pending - 1;
      t.pending_total <- t.pending_total - 1;
      if u.st = Tfence && u.pending = 0 then begin
        u.st <- Trun;
        (* fence completes: stores drained *)
        if t.probed then t.probe.Probe.release ~tcu:u.tid
      end;
      maybe_join t
    end
    else if u.st = Tmemwait then (* blocking store ack *) wake t u r_lc ~pref:false
  | Ppsm { tcu; dst; old; _ } ->
    let u = cl.ctcus.(tcu mod t.cfg.Config.tcus_per_cluster) in
    if dst <> 0 then u.ctx.F.regs.(dst) <- old;
    if u.st = Tmemwait then wake t u r_lc ~pref:false

(* issue one TCU instruction; returns unit.  Assumes u.st = Trun. *)
let tcu_issue t (cl : cluster) (u : tcu) =
  let spawn_idx, join_idx = t.spawn_region in
  let pc = u.ctx.F.pc in
  if pc <= spawn_idx || pc >= join_idx then
    fail
      "TCU %d fetched pc %d outside the broadcast spawn region (%d, %d): the \
       block was not broadcast (cf. Fig. 9)"
      u.tid pc spawn_idx join_idx;
  let ins = t.img.Isa.Program.instrs.(pc) in
  (* shared-FU availability check before issue *)
  let now = Desim.Scheduler.now t.sched in
  let try_fu pool lat =
    let rec go i =
      if i >= Array.length pool then None
      else if pool.(i) <= now then begin
        pool.(i) <- now + (lat * Desim.Clock.period t.clk_cluster);
        Some lat
      end
      else go (i + 1)
    in
    go 0
  in
  let fu_needed =
    match I.fu_class_of ins with
    | I.FU_MDU ->
      let lat =
        match ins with
        | I.Mdu (I.Mul, _, _, _) -> t.cfg.Config.mul_latency
        | _ -> t.cfg.Config.div_latency
      in
      Some (cl.mdu, lat)
    | I.FU_FPU ->
      let lat =
        match ins with
        | I.Fpu1 (I.Fsqrt, _, _) -> t.cfg.Config.sqrt_latency
        | I.Fpu (I.Fdiv, _, _, _) -> t.cfg.Config.div_latency
        | _ -> t.cfg.Config.fpu_latency
      in
      Some (cl.fpu, lat)
    | _ -> None
  in
  let granted =
    match fu_needed with
    | None -> Some 0
    | Some (pool, lat) -> try_fu pool lat
  in
  match granted with
  | None ->
    (* shared unit busy: stall, retry next cycle *)
    t.stats.Stats.tcu_fuwait_cycles <- t.stats.Stats.tcu_fuwait_cycles + 1;
    if t.ticked then t.probe.Probe.stall ~tcu:u.tid ~pc
  | Some fu_lat -> (
    let read_str a = Mem.read_string t.memory a in
    let res = F.issue t.img u.ctx ~read_str in
    Stats.count_instr t.stats ~master:false ins;
    t.cluster_instrs.(cl.cid) <- t.cluster_instrs.(cl.cid) + 1;
    t.stats.Stats.tcu_busy_cycles <- t.stats.Stats.tcu_busy_cycles + 1;
    if t.ticked then t.probe.Probe.issue ~tcu:u.tid ~pc ins ~addr:(addr_of_result res);
    match res with
    | F.Done -> if fu_lat > 1 then u.st <- Tfuwait (fu_lat - 1)
    | F.Load { dst; addr; ro } ->
      if ro && Tags.lookup cl.rocache addr then begin
        t.stats.Stats.rocache_hits <- t.stats.Stats.rocache_hits + 1;
        if t.probed then t.probe.Probe.read ~tcu:u.tid ~pc ~addr;
        F.complete_load u.ctx dst (Mem.read t.memory addr);
        if t.cfg.Config.rocache_hit_latency > 1 then
          u.st <- Tfuwait (t.cfg.Config.rocache_hit_latency - 1)
      end
      else begin
        if ro then t.stats.Stats.rocache_misses <- t.stats.Stats.rocache_misses + 1;
        match Prefetch_buffer.lookup u.pbuf addr with
        | Prefetch_buffer.Hit v ->
          t.stats.Stats.prefetch_hits <- t.stats.Stats.prefetch_hits + 1;
          F.complete_load u.ctx dst v
        | Prefetch_buffer.In_flight ->
          t.stats.Stats.prefetch_late <- t.stats.Stats.prefetch_late + 1;
          Prefetch_buffer.wait_on u.pbuf addr dst;
          u.st <- Tmemwait
        | Prefetch_buffer.Miss ->
          t.stats.Stats.prefetch_misses <- t.stats.Stats.prefetch_misses + 1;
          Queue.add
            (mk_pkg t addr (Rload { cl = cl.cid; tcu = u.tid; dst; ro; pc }))
            cl.outbox;
          u.st <- Tmemwait
      end
    | F.Store { addr; value; nb } ->
      (* rule 1 (same source, same destination order): the TCU's own store
         must not be shadowed by a stale prefetched value *)
      Prefetch_buffer.invalidate u.pbuf addr;
      Queue.add
        (mk_pkg t addr (Rstore { cl = cl.cid; tcu = u.tid; value; nb; pc }))
        cl.outbox;
      if nb then begin
        t.stats.Stats.nb_stores <- t.stats.Stats.nb_stores + 1;
        u.pending <- u.pending + 1;
        t.pending_total <- t.pending_total + 1
      end
      else u.st <- Tmemwait
    | F.Psm { dst; addr; inc } ->
      Queue.add
        (mk_pkg t addr (Rpsm { cl = cl.cid; tcu = u.tid; inc; dst; pc }))
        cl.outbox;
      u.st <- Tmemwait
    | F.Prefetch { addr } ->
      t.stats.Stats.prefetch_issued <- t.stats.Stats.prefetch_issued + 1;
      if Prefetch_buffer.start u.pbuf addr then
        Queue.add (mk_pkg t addr (Rpref { cl = cl.cid; tcu = u.tid; pc })) cl.outbox
    | F.Ps { dst; g; inc } ->
      if inc <> 0 && inc <> 1 then
        fail "TCU %d: ps increment must be 0 or 1 (got %d)" u.tid inc;
      t.stats.Stats.ps_ops <- t.stats.Stats.ps_ops + 1;
      u.st <- Tpswait;
      let delay = t.cfg.Config.ps_latency * Desim.Clock.period t.clk_cluster in
      Desim.Scheduler.schedule t.sched ~delay (fun () ->
          let old = t.globals.(g) in
          t.globals.(g) <- old + inc;
          if t.probed then t.probe.Probe.sync ~tcu:u.tid;
          if dst <> 0 then u.ctx.F.regs.(dst) <- old;
          if u.st = Tpswait then u.st <- Trun)
    | F.Chkid { id } ->
      if id <= t.spawn_bound then begin
        t.stats.Stats.virtual_threads <- t.stats.Stats.virtual_threads + 1
      end
      else begin
        u.st <- Tdone;
        t.done_count <- t.done_count + 1;
        if t.probed then t.probe.Probe.tcu_done ~tcu:u.tid;
        maybe_join t
      end
    | F.Fence ->
      t.stats.Stats.fences <- t.stats.Stats.fences + 1;
      if u.pending > 0 then u.st <- Tfence
      else if t.probed then t.probe.Probe.release ~tcu:u.tid (* completes at once *)
    | F.Output s -> Buffer.add_string t.out_buf s
    | F.Spawn _ -> fail "TCU %d executed spawn (nested spawns are serialized)" u.tid
    | F.Join -> fail "TCU %d reached the join instruction" u.tid
    | F.Halt -> fail "TCU %d executed halt" u.tid
    | F.Mfg _ | F.Mtg _ -> fail "TCU %d executed serial-only mfg/mtg" u.tid)

let tcu_tick t (cl : cluster) (u : tcu) =
  match u.st with
  | Tidle | Tdone -> ()
  | Trun -> tcu_issue t cl u
  | Tfuwait n ->
    t.stats.Stats.tcu_busy_cycles <- t.stats.Stats.tcu_busy_cycles + 1;
    if t.ticked then t.probe.Probe.wait ~tcu:u.tid Probe.Fu;
    u.st <- (if n <= 1 then Trun else Tfuwait (n - 1))
  | Tmemwait ->
    t.stats.Stats.tcu_memwait_cycles <- t.stats.Stats.tcu_memwait_cycles + 1;
    if t.ticked then t.probe.Probe.wait ~tcu:u.tid Probe.Mem
  | Tpswait ->
    t.stats.Stats.tcu_pswait_cycles <- t.stats.Stats.tcu_pswait_cycles + 1;
    if t.ticked then t.probe.Probe.wait ~tcu:u.tid Probe.Ps
  | Tfence ->
    t.stats.Stats.tcu_memwait_cycles <- t.stats.Stats.tcu_memwait_cycles + 1;
    if t.ticked then t.probe.Probe.wait ~tcu:u.tid Probe.Fence;
    if u.pending = 0 then begin
      u.st <- Trun;
      if t.probed then t.probe.Probe.release ~tcu:u.tid
    end

let cluster_tick t (cl : cluster) =
  if t.spawn_active || (not (Queue.is_empty cl.returns)) || not (Queue.is_empty cl.outbox)
  then begin
    (* phase 1: accept returning packages *)
    for _ = 1 to t.cfg.Config.cluster_return_width do
      match Queue.take_opt cl.returns with
      | Some rp -> deliver_reply t cl rp
      | None -> ()
    done;
    (* phase 2: step TCUs, rotating priority *)
    if t.spawn_active then begin
      let n = Array.length cl.ctcus in
      for k = 0 to n - 1 do
        tcu_tick t cl cl.ctcus.((cl.rr + k) mod n)
      done;
      cl.rr <- (cl.rr + 1) mod n
    end;
    (* phase 3: inject into the ICN *)
    for _ = 1 to t.cfg.Config.cluster_inject_width do
      match Queue.take_opt cl.outbox with
      | Some pk -> icn_send t ~cl:cl.cid pk
      | None -> ()
    done
  end

(* ------------------------------------------------------------------ *)
(* Master TCU *)

let master_tick t =
  match t.master_st with
  | Mhalted | Mmemwait | Mspawnwait -> ()
  | Mstall n ->
    if t.ticked then t.probe.Probe.wait ~tcu:(-1) Probe.Fu;
    t.master_st <- (if n <= 1 then Mrun else Mstall (n - 1))
  | Mrun -> (
    let pc = t.master.F.pc in
    let ins = t.img.Isa.Program.instrs.(pc) in
    (* master handles mfg/mtg directly *)
    let read_str a = Mem.read_string t.memory a in
    let res = F.issue t.img t.master ~read_str in
    Stats.count_instr t.stats ~master:true ins;
    if t.ticked then
      t.probe.Probe.issue ~tcu:(-1) ~pc ins
        ~addr:(match res with F.Load { addr; _ } | F.Store { addr; _ } -> addr | _ -> -1);
    match res with
    | F.Done -> (
      (* multi-cycle master ALU ops *)
      match I.fu_class_of ins with
      | I.FU_MDU ->
        let lat =
          match ins with
          | I.Mdu (I.Mul, _, _, _) -> t.cfg.Config.mul_latency
          | _ -> t.cfg.Config.div_latency
        in
        if lat > 1 then t.master_st <- Mstall (lat - 1)
      | I.FU_FPU ->
        let lat =
          match ins with
          | I.Fpu1 (I.Fsqrt, _, _) -> t.cfg.Config.sqrt_latency
          | _ -> t.cfg.Config.fpu_latency
        in
        if lat > 1 then t.master_st <- Mstall (lat - 1)
      | _ -> ())
    | F.Load { dst; addr; ro = _ } ->
      if Tags.lookup t.master_cache addr then begin
        t.stats.Stats.master_cache_hits <- t.stats.Stats.master_cache_hits + 1;
        F.complete_load t.master dst (Mem.read t.memory addr);
        if t.cfg.Config.master_cache_hit_latency > 1 then
          t.master_st <- Mstall (t.cfg.Config.master_cache_hit_latency - 1)
      end
      else begin
        t.stats.Stats.master_cache_misses <- t.stats.Stats.master_cache_misses + 1;
        t.master_st <- Mmemwait;
        let delay =
          (t.cfg.Config.dram_latency * Desim.Clock.period t.clk_dram)
          + t.cfg.Config.master_cache_hit_latency
        in
        t.stats.Stats.dram_reads <- t.stats.Stats.dram_reads + 1;
        let t_miss = Desim.Scheduler.now t.sched in
        Desim.Scheduler.schedule t.sched ~delay (fun () ->
            Tags.install t.master_cache addr;
            F.complete_load t.master dst (Mem.read t.memory addr);
            if t.probed then
              t.probe.Probe.master_mem ~waited:(Desim.Scheduler.now t.sched - t_miss);
            if t.master_st = Mmemwait then t.master_st <- Mrun;
            Desim.Clock.wake t.clk_cluster)
      end
    | F.Store { addr; value; nb = _ } ->
      (* write-through master cache; write buffer absorbs the latency *)
      Mem.write t.memory addr value;
      Tags.install t.master_cache addr
    | F.Mfg { dst; g } -> if dst <> 0 then t.master.F.regs.(dst) <- t.globals.(g)
    | F.Mtg { g; src } -> t.globals.(g) <- src
    | F.Spawn { lo; hi } ->
      t.stats.Stats.spawns <- t.stats.Stats.spawns + 1;
      let spawn_idx = pc in
      let join_idx =
        match Hashtbl.find_opt t.join_of spawn_idx with
        | Some j -> j
        | None -> fail "spawn at %d has no join" spawn_idx
      in
      t.master_st <- Mspawnwait;
      let delay = t.cfg.Config.spawn_overhead * Desim.Clock.period t.clk_cluster in
      Desim.Scheduler.schedule t.sched ~delay (fun () ->
          t.spawn_region <- (spawn_idx, join_idx);
          t.spawn_bound <- hi;
          t.globals.(Isa.Reg.g_spawn) <- lo;
          t.done_count <- 0;
          t.spawn_active <- true;
          if t.probed then t.probe.Probe.spawn ~lo ~hi;
          Array.iter
            (fun cl ->
              Array.iter
                (fun u ->
                  F.copy_regs ~src:t.master ~dst:u.ctx;
                  u.ctx.F.pc <- spawn_idx + 1;
                  u.st <- Trun;
                  Prefetch_buffer.clear u.pbuf)
                cl.ctcus)
            t.clusters;
          Desim.Clock.wake t.clk_cluster)
    | F.Join -> fail "master reached join without spawn (postpass should reject)"
    | F.Output s -> Buffer.add_string t.out_buf s
    | F.Halt ->
      t.master_st <- Mhalted;
      t.halted <- true;
      Desim.Scheduler.stop t.sched ()
    | F.Fence -> () (* master stores are write-through: nothing pending *)
    | F.Ps _ -> fail "master executed ps (parallel-only)"
    | F.Psm _ -> fail "master executed psm (parallel-only)"
    | F.Chkid _ -> fail "master executed chkid"
    | F.Prefetch _ -> () (* master prefetch: no-op *))

(* ------------------------------------------------------------------ *)

type domain = Clusters | Icn | Caches | Dram

let clock_of t = function
  | Clusters -> t.clk_cluster
  | Icn -> t.clk_icn
  | Caches -> t.clk_cache
  | Dram -> t.clk_dram

let set_period t d p = Desim.Clock.set_period (clock_of t d) p
let period t d = Desim.Clock.period (clock_of t d)

(* ------------------------------------------------------------------ *)
(* Clock gating (paper §III-C: the event engine skips inactive parts).
   Each domain sleeps when it provably has no work this tick and is woken
   by the events that create work.  Clock.wake resumes on the period grid,
   so gating never changes simulated times, stats or traces — only the
   host-side event count. *)

let set_gating t on =
  if t.started then fail "set_gating must be called before the first run";
  t.gating <- on

let gating_enabled t = t.gating
let domain_sleeping t d = Desim.Clock.sleeping (clock_of t d)

let cluster_domain_idle t =
  (not t.spawn_active)
  && (match t.master_st with
     | Mmemwait | Mspawnwait | Mhalted -> true  (* parked on a callback *)
     | Mrun | Mstall _ -> false (* tick-driven *))
  && Array.for_all
       (fun cl -> Queue.is_empty cl.outbox && Queue.is_empty cl.returns)
       t.clusters

let cache_domain_idle t =
  Queue.is_empty t.dram_q
  && Array.for_all
       (fun m -> Queue.is_empty m.inq && Hashtbl.length m.mshr = 0)
       t.modules

let dram_domain_idle t = Queue.is_empty t.dram_q && t.dram_fills = 0

(* Per-domain gating effectiveness: fired ticks, the estimate of ticks
   gated away, and the current period, as sim.clock.* metrics. *)
let export_clocks t reg =
  List.iter
    (fun d ->
      let c = clock_of t d in
      let labels = [ ("domain", Desim.Clock.name c) ] in
      Obs.Metrics.inc
        ~by:(Desim.Clock.cycles c)
        (Obs.Metrics.counter reg ~labels "sim.clock.ticks");
      Obs.Metrics.inc
        ~by:(Desim.Clock.skipped_ticks c)
        (Obs.Metrics.counter reg ~labels "sim.clock.skipped_ticks");
      Obs.Metrics.set
        (Obs.Metrics.gauge reg ~labels "sim.clock.period")
        (float_of_int (Desim.Clock.period c)))
    [ Clusters; Icn; Caches; Dram ]

let add_activity_plugin t ~name ~interval hook =
  ignore name;
  (* plug-ins sample on cluster ticks: keep that clock free-running so
     sampling times match an unplugged run of the same schedule *)
  t.has_plugin <- true;
  Desim.Clock.wake t.clk_cluster;
  Desim.Clock.on_tick ~phase:2 t.clk_cluster (fun cycle ->
      if cycle > 0 && cycle mod interval = 0 then hook t cycle)

(* Probes.  The attached list is precombined into one fan-out whenever
   it changes; detaching mid-notification is safe, as the notification
   in progress runs the old fan-out. *)

let refresh_probes t =
  t.probe <- Probe.combine t.probes;
  t.probed <- t.probes <> [];
  let n = Probe.nop and p = t.probe in
  t.ticked <- p.issue != n.issue || p.stall != n.stall || p.wait != n.wait;
  t.packaged <- p.package != n.package

let attach t p =
  t.probes <- t.probes @ [ p ];
  refresh_probes t;
  fun () ->
    t.probes <- List.filter (fun q -> q != p) t.probes;
    refresh_probes t

let probes t = List.map (fun p -> p.Probe.name) t.probes

(* ------------------------------------------------------------------ *)

let start t =
  if not t.started then begin
    t.started <- true;
    (* the probes' cluster-tick event rides the master's existing phase-0
       handler (fired ticks only — a gated-off domain fires none), so
       probing changes neither event scheduling nor gating; a handler of
       its own would cost a dispatch on every fired tick *)
    Desim.Clock.on_tick ~phase:0 t.clk_cluster (fun cycle ->
        if t.probed then t.probe.Probe.cluster_tick ~cycle;
        master_tick t);
    Desim.Clock.on_tick ~phase:1 t.clk_cluster (fun _ ->
        Array.iter (cluster_tick t) t.clusters);
    Desim.Clock.on_tick ~phase:0 t.clk_cache (fun _ ->
        Array.iter (module_tick t) t.modules);
    Desim.Clock.on_tick ~phase:0 t.clk_dram (fun _ -> dram_tick t);
    (* gating checks run after every work phase of the tick (activity
       plug-ins register at phase 2; cluster gating is disabled outright
       while one is attached, see add_activity_plugin) *)
    Desim.Clock.on_tick ~phase:100 t.clk_cluster (fun _ ->
        if t.gating && (not t.has_plugin) && cluster_domain_idle t then
          Desim.Clock.sleep t.clk_cluster);
    Desim.Clock.on_tick ~phase:100 t.clk_cache (fun _ ->
        if t.gating && cache_domain_idle t then Desim.Clock.sleep t.clk_cache);
    Desim.Clock.on_tick ~phase:100 t.clk_dram (fun _ ->
        if t.gating && dram_domain_idle t then Desim.Clock.sleep t.clk_dram);
    Desim.Clock.start t.clk_cluster;
    Desim.Clock.start t.clk_icn;
    Desim.Clock.start t.clk_cache;
    Desim.Clock.start t.clk_dram;
    (* the ICN clock has no tick handlers — transfers are their own
       scheduled events — so under gating it sleeps for the whole run *)
    if t.gating then Desim.Clock.sleep t.clk_icn
  end

let run ?max_cycles t =
  start t;
  let budget =
    match max_cycles with Some m -> m | None -> t.cfg.Config.max_cycles
  in
  Desim.Scheduler.stop t.sched ~time:(Desim.Scheduler.now t.sched + budget) ();
  let (_ : Desim.Scheduler.outcome) = Desim.Scheduler.run t.sched in
  t.stats.Stats.cycles <- Desim.Scheduler.now t.sched;
  if t.probed then t.probe.Probe.run_end ~halted:t.halted;
  { output = Buffer.contents t.out_buf; cycles = Desim.Scheduler.now t.sched;
    halted = t.halted }

(* ------------------------------------------------------------------ *)
(* Checkpoints *)

exception Bad_snapshot of string

type snapshot = {
  s_image : Digest.t;  (** {!image_digest} of the program it belongs to *)
  s_mem : Mem.t;
  s_regs : int array;
  s_fregs : float array;
  s_pc : int;
  s_globals : int array;
  s_output : string;
  (* telemetry state: restoring must keep post-restore histograms and
     counters consistent with the pre-checkpoint run *)
  s_stats : Stats.t;
  s_icn_backlog : int array array;
      (** icn_next_free relative to the checkpoint time (>= 0): residual
          merge contention survives the save/restore boundary *)
  s_cluster_instrs : int array;
}

(* The program a snapshot belongs to: its code and data layout. *)
let image_digest (img : Isa.Program.image) =
  Digest.string
    (Marshal.to_string (img.instrs, img.targets, img.data_base, img.entry)
       [ Marshal.No_sharing ])

let make_snapshot ~image ~mem ~regs ~fregs ~pc ~globals ~output =
  { s_image = image_digest image; s_mem = mem; s_regs = regs; s_fregs = fregs;
    s_pc = pc; s_globals = globals; s_output = output; s_stats = Stats.create ();
    s_icn_backlog = [||]; s_cluster_instrs = [||] }

let is_quiescent t =
  (not t.spawn_active)
  && (match t.master_st with Mrun | Mhalted -> true | _ -> false)
  && t.pending_total = 0

(* Run in small increments until the machine reaches a quiescent point (a
   serial instruction boundary with nothing in flight) or halts. *)
let run_to_quiescent t =
  (* single-cycle steps: the serial windows between spawns are narrow and
     a coarser stride would overshoot them all the way to the halt *)
  let guard = ref 0 in
  while (not (is_quiescent t)) && (not t.halted) && !guard < 10_000_000 do
    incr guard;
    ignore (run ~max_cycles:1 t)
  done;
  if not (is_quiescent t) then fail "machine did not reach a quiescent point"

let checkpoint t =
  if not (is_quiescent t) then
    fail "checkpoint requires a quiescent machine (serial mode, no in-flight ops)";
  {
    s_image = image_digest t.img;
    s_mem = Mem.snapshot t.memory;
    s_regs = Array.copy t.master.F.regs;
    s_fregs = Array.copy t.master.F.fregs;
    s_pc = t.master.F.pc;
    s_globals = Array.copy t.globals;
    s_output = Buffer.contents t.out_buf;
    s_stats = Stats.copy t.stats;
    s_icn_backlog = icn_backlog t;
    s_cluster_instrs = Array.copy t.cluster_instrs;
  }

let restore t s =
  if not (is_quiescent t) then fail "restore requires a quiescent machine";
  if s.s_image <> image_digest t.img then
    raise (Bad_snapshot "snapshot was taken from a different program image");
  Mem.restore t.memory s.s_mem;
  (* snapshots must survive register-file size changes: copy what fits *)
  Array.blit s.s_regs 0 t.master.F.regs 0
    (min (Array.length s.s_regs) (Array.length t.master.F.regs));
  Array.blit s.s_fregs 0 t.master.F.fregs 0
    (min (Array.length s.s_fregs) (Array.length t.master.F.fregs));
  t.master.F.pc <- s.s_pc;
  Array.blit s.s_globals 0 t.globals 0 (Array.length t.globals);
  Buffer.clear t.out_buf;
  Buffer.add_string t.out_buf s.s_output;
  t.master_st <- Mrun;
  t.halted <- false;
  (* a gated machine may have parked the cluster clock (e.g. after the
     halt that preceded this restore); Mrun needs it ticking again.  The
     wake is grid-aligned, so the resume time matches an ungated run. *)
  Desim.Clock.wake ~tick_at_now:true t.clk_cluster;
  Tags.invalidate_all t.master_cache;
  (* telemetry state: counters/histograms continue from the checkpoint;
     residual ICN merge contention is re-anchored at the current time.
     make_snapshot-produced snapshots (functional fast-forward) carry
     empty arrays and leave the fresh machine's state as created. *)
  Stats.blit ~src:s.s_stats ~dst:t.stats;
  (match t.stats.Stats.req_lat with
  | None ->
    t.stats.Stats.req_lat <-
      Some
        (Stats.make_req_latency ~clusters:t.cfg.Config.num_clusters
           ~modules:t.cfg.Config.num_cache_modules)
  | Some _ -> ());
  (let now = Desim.Scheduler.now t.sched in
   Array.iteri
     (fun m sides ->
       Array.iteri
         (fun side rel ->
           if m < Array.length t.icn_next_free
              && side < Array.length t.icn_next_free.(m)
           then t.icn_next_free.(m).(side) <- now + rel)
         sides)
     s.s_icn_backlog);
  Array.blit s.s_cluster_instrs 0 t.cluster_instrs 0
    (min (Array.length s.s_cluster_instrs) (Array.length t.cluster_instrs))

(* File layout: magic, format version (int32), image digest, payload
   digest, then the marshaled snapshot.  The payload is unmarshaled only
   once its digest checks out, since Marshal itself is not type-safe. *)
let snapshot_magic = "XMT-SNAP"
let snapshot_version = 1
let header_len = String.length snapshot_magic + 4 + 16 + 16

let snapshot_to_file s path =
  let payload = Marshal.to_string s [] in
  let version = Bytes.create 4 in
  Bytes.set_int32_be version 0 (Int32.of_int snapshot_version);
  Out_channel.with_open_bin path (fun oc ->
      List.iter (output_string oc)
        [ snapshot_magic; Bytes.to_string version; s.s_image; Digest.string payload; payload ])

let snapshot_of_file path =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad_snapshot (path ^ ": " ^ m))) fmt in
  let data = In_channel.with_open_bin path In_channel.input_all in
  if String.length data < header_len || not (String.starts_with ~prefix:snapshot_magic data)
  then bad "not an xmtsim snapshot";
  let version = Int32.to_int (String.get_int32_be data 8) in
  if version <> snapshot_version then
    bad "snapshot format version %d, expected %d" version snapshot_version;
  let payload = String.sub data header_len (String.length data - header_len) in
  if Digest.string payload <> String.sub data 28 16 then bad "truncated or corrupt snapshot";
  let s : snapshot = Marshal.from_string payload 0 in
  if s.s_image <> String.sub data 12 16 then bad "header and payload disagree on the image";
  s
