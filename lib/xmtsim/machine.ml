module I = Isa.Instr
module F = Funcmodel
module V = Isa.Value

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

type kind = Kload | Kpref | Kstore | Kpsm

(* Where a package's one pending event takes it. *)
type stage = To_module | To_fill | To_reply | To_cluster

(* A memory request travelling cluster -> ICN -> cache module, and back as
   its reply ("package").  It carries the pc of the issuing instruction so
   every memory-touching event exposes (address, tcu, pc) to the probes,
   and its lifecycle stamps, read once at reply delivery to feed the
   per-(cluster, module) latency histograms and the probes.  Packages are
   pooled: a delivered one goes back to the machine's free list, and each
   builds the closure of its scheduled events once, so a memory round trip
   allocates nothing.  Packages missing on the same line wait in a chain
   through [next]. *)
type pkg = {
  mutable kind : kind;
  mutable addr : int;
  mutable cl : int;
  mutable tcu : int;
  mutable pc : int;
  mutable dst : int;  (* load: register code (Funcmodel.ctx); psm: register *)
  mutable ro : bool;  (* load through the read-only cache *)
  mutable nb : bool;  (* non-blocking store *)
  mutable value : V.t;  (* store: the value written; load, pref: the value read *)
  mutable inc : int;  (* psm: the increment, then the old value *)
  mutable stage : stage;
  mutable next : pkg;  (* the MSHR chain; [no_pkg] ends it *)
  lc : Probe.lifecycle;  (* l_mod is the destination cache module *)
  mutable fire : unit -> unit;
}

(* fills vacated queue slots and ends MSHR chains *)
let rec no_pkg =
  { kind = Kload; addr = 0; cl = 0; tcu = 0; pc = 0; dst = 0; ro = false; nb = false;
    value = V.zero; inc = 0; stage = To_module; next = no_pkg; fire = ignore;
    lc = { l_born = 0; l_icn_wait = 0; l_arrive = 0; l_svc = 0; l_mod = -1; l_hit = false } }

let new_pkg () = { no_pkg with lc = { no_pkg.lc with l_born = 0 } }

type tcu_state =
  | Tidle
  | Trun
  | Tmemwait
  | Tfuwait  (* [wait] more cycles of FU latency *)
  | Tpswait
  | Tfence
  | Tdone

type tcu = {
  tid : int;
  tcl : int;
  tword : int;  (* this TCU's word and bit in its cluster's runnable set *)
  tbit : int;
  ctx : F.ctx;
  mutable st : tcu_state;
  mutable wait : int;
  mutable pending : int;
  pbuf : Prefetch_buffer.t;
  (* the prefix-sum in flight, and its completion event (built at start) *)
  mutable ps_g : int; mutable ps_inc : int; mutable ps_dst : int;
  mutable ps_done : unit -> unit;
}

type cluster = {
  cid : int;
  ctcus : tcu array;
  mdu : int array;  (* busy-until times per shared unit *)
  fpu : int array;
  outbox : pkg Ring.t;
  returns : pkg Ring.t;
  rocache : Tags.t;
  mutable rr : int;
  (* kept by [set_state]: the TCUs in [Trun] or [Tfuwait], a bit set of
     [set_bits] per word; the count in [Tmemwait] or [Tfence]; the count
     in [Tpswait]; while a probe hears waits, the TCUs that entered one
     of those waits since their last tick, in the same layout *)
  runnable : int array;
  mutable n_mem : int;
  mutable n_ps : int;
  entered : int array;
}

(* Mstall: [master_wait] more cycles of post-issue latency *)
type master_state = Mrun | Mstall | Mmemwait | Mspawnwait | Mhalted

type cache_module = {
  mid : int;
  inq : pkg Ring.t;
  tags : Tags.t;
  mshr : (int, pkg) Hashtbl.t;  (* line addr -> its latest waiter *)
}

(* [h_run g] on the first fired cluster tick whose grid index [g] is due *)
type hook = { h_interval : int; h_active : bool; mutable h_due : int; h_run : int -> unit }

type t = {
  cfg : Config.t;
  img : Isa.Program.image;
  sched : Desim.Scheduler.t;
  clk_cluster : Desim.Clock.t;
  clk_icn : Desim.Clock.t;
  clk_cache : Desim.Clock.t;
  clk_dram : Desim.Clock.t;
  memory : Mem.t;
  read_str : int -> string;  (* Funcmodel.issue's string reader, built once *)
  globals : int array;
  stats : Stats.t;
  out_buf : Buffer.t;
  clusters : cluster array;
  modules : cache_module array;
  dram_q : pkg Ring.t;  (* packages awaiting a DRAM slot *)
  free_pkgs : pkg Ring.t;
  mutable queued : int;
      (* packages in cluster outbox/returns rings: with no spawn active and
         none queued, every cluster tick is a no-op *)
  master : F.ctx;
  master_cache : Tags.t;
  mutable master_st : master_state;
  mutable master_wait : int;
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
  (* hook-site guards: some probe is attached / listens to issues and
     stalls / to waits / to package stations *)
  mutable probed : bool;
  mutable hears_issue : bool;
  mutable hears_wait : bool;
  mutable packaged : bool;
  mutable started : bool;
  (* clock gating *)
  mutable gating : bool;
  mutable hooks : hook list;  (* periodic hooks, oldest first *)
  mutable dram_fills : int;  (* DRAM line fills in flight *)
}

type result = { output : string; cycles : int; halted : bool }

(* A runnable set holds [set_bits] TCUs per word, below the sign bit, so
   a word's lowest set bit [b] is positive and [b mod 67] tells the 62
   bits apart (2 has order 66 modulo 67): [bit_index] maps it back. *)
let set_bits = 62

let bit_index =
  let a = Array.make 67 0 in
  for k = 0 to set_bits - 1 do
    a.((1 lsl k) mod 67) <- k
  done;
  a

let runnable = function Trun | Tfuwait -> true | Tidle | Tmemwait | Tpswait | Tfence | Tdone -> false
let waiting = function Tmemwait | Tpswait | Tfence -> true | Tidle | Trun | Tfuwait | Tdone -> false
let mem_waits = function Tmemwait | Tfence -> 1 | Tidle | Trun | Tfuwait | Tpswait | Tdone -> 0
let ps_waits = function Tpswait -> 1 | Tidle | Trun | Tfuwait | Tmemwait | Tfence | Tdone -> 0

(* Every TCU state change goes through here, so each cluster's runnable
   set, wait counts and entered set always match its TCUs' states.  The
   cluster tick relies on it: it visits only the runnable and entered
   sets and adds the wait counts in bulk (see [cluster_tick]).  A TCU
   leaves the entered set at its first waiting tick or when its wait
   ends, whichever comes first. *)
let set_state t (u : tcu) st =
  let cl = t.clusters.(u.tcl) in
  if runnable u.st <> runnable st then cl.runnable.(u.tword) <- cl.runnable.(u.tword) lxor u.tbit;
  cl.n_mem <- cl.n_mem + mem_waits st - mem_waits u.st;
  cl.n_ps <- cl.n_ps + ps_waits st - ps_waits u.st;
  if waiting st then begin
    if t.hears_wait then cl.entered.(u.tword) <- cl.entered.(u.tword) lor u.tbit
  end
  else if waiting u.st then cl.entered.(u.tword) <- cl.entered.(u.tword) land lnot u.tbit;
  u.st <- st

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

let create ?(config = Config.fpga64) img =
  let cfg = config in
  let sched = Desim.Scheduler.create () in
  let clk name period rank = Desim.Clock.create sched ~rank ~name ~period in
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
                  tword = k / set_bits;
                  tbit = 1 lsl (k mod set_bits);
                  ctx = F.make_ctx ();
                  st = Tidle;
                  wait = 0;
                  pending = 0;
                  pbuf =
                    Prefetch_buffer.create ~size:cfg.Config.prefetch_buffer_size
                      ~policy:cfg.Config.prefetch_policy;
                  ps_g = 0; ps_inc = 0; ps_dst = 0; ps_done = ignore;
                });
          mdu = Array.make (max 1 cfg.Config.mdus_per_cluster) 0;
          fpu = Array.make (max 1 cfg.Config.fpus_per_cluster) 0;
          outbox = Ring.create no_pkg;
          returns = Ring.create no_pkg;
          rocache =
            Tags.create ~lines:cfg.Config.rocache_lines ~assoc:2
              ~line_words:cfg.Config.cache_line_words;
          rr = 0;
          runnable = Array.make ((cfg.Config.tcus_per_cluster + set_bits - 1) / set_bits) 0;
          n_mem = 0;
          n_ps = 0;
          entered = Array.make ((cfg.Config.tcus_per_cluster + set_bits - 1) / set_bits) 0;
        })
  in
  let modules =
    Array.init cfg.Config.num_cache_modules (fun mid ->
        {
          mid;
          inq = Ring.create no_pkg;
          tags =
            Tags.create ~lines:cfg.Config.cache_lines ~assoc:cfg.Config.cache_assoc
              ~line_words:cfg.Config.cache_line_words;
          mshr = Hashtbl.create 16;
        })
  in
  let master = F.make_ctx () in
  master.F.pc <- img.Isa.Program.entry;
  let memory = Mem.load img in
  let stats = Stats.create () in
  stats.Stats.req_lat <-
    Some
      (Stats.make_req_latency ~clusters:cfg.Config.num_clusters
         ~modules:cfg.Config.num_cache_modules);
  {
    cfg;
    img;
    sched;
    (* one tick order at every instant: clusters, icn, caches, dram *)
    clk_cluster = clk "clusters" cfg.Config.cluster_period 0;
    clk_icn = clk "icn" cfg.Config.icn_period 1;
    clk_cache = clk "caches" cfg.Config.cache_period 2;
    clk_dram = clk "dram" cfg.Config.dram_period 3;
    memory;
    read_str = Mem.read_string memory;
    globals = Array.make Isa.Reg.num_globals 0;
    stats;
    out_buf = Buffer.create 256;
    clusters;
    modules;
    dram_q = Ring.create no_pkg;
    free_pkgs = Ring.create no_pkg;
    queued = 0;
    master;
    master_cache =
      Tags.create ~lines:cfg.Config.master_cache_lines ~assoc:2
        ~line_words:cfg.Config.cache_line_words;
    master_st = Mrun;
    master_wait = 0;
    halted = false;
    spawn_active = false;
    spawn_bound = -1;
    spawn_region = (-1, -1);
    done_count = 0;
    pending_total = 0;
    join_of = F.join_map ~error:(fun s -> Sim_error s) img;
    jitter;
    icn_next_free =
      Array.init cfg.Config.num_cache_modules (fun _ -> Array.make 2 0);
    cluster_instrs = Array.make cfg.Config.num_clusters 0;
    probes = [];
    probe = Probe.nop;
    probed = false;
    hears_issue = false;
    hears_wait = false;
    packaged = false;
    started = false;
    gating = true;
    hooks = [];
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

let kind_name = function
  | Kload -> "load"
  | Kpref -> "pref"
  | Kstore -> "store"
  | Kpsm -> "psm"

let emit_pkg t ~stage pk ~m =
  if t.packaged then
    t.probe.Probe.package ~stage ~kind:(kind_name pk.kind) ~addr:pk.addr ~tcu:pk.tcu
      ~pc:pk.pc ~module_:m

(* ------------------------------------------------------------------ *)
(* ICN transport: event-per-package with per-(cluster,module) jitter that
   preserves same-source-same-destination FIFO ordering (memory model
   rule 1: static routing keeps per-pair order). *)

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
  pk.stage <- To_module;
  Desim.Scheduler.schedule t.sched ~prio:Desim.Scheduler.prio_transfer
    ~delay:(arrival - now) pk.fire

let icn_reply t pk =
  let delay =
    (t.cfg.Config.icn_latency * Desim.Clock.period t.clk_icn)
    + t.jitter.(pk.cl).(pk.lc.l_mod)
  in
  t.stats.Stats.icn_packets <- t.stats.Stats.icn_packets + 1;
  pk.lc.l_svc <- Desim.Scheduler.now t.sched;
  pk.stage <- To_cluster;
  Desim.Scheduler.schedule t.sched ~prio:Desim.Scheduler.prio_transfer ~delay pk.fire

(* ------------------------------------------------------------------ *)
(* Join logic *)

let total_tcus t = Array.length t.clusters * t.cfg.Config.tcus_per_cluster

let maybe_join t =
  if t.spawn_active && t.done_count = total_tcus t && t.pending_total = 0 then begin
    t.spawn_active <- false;
    Array.iter (fun cl -> Array.iter (fun u -> set_state t u Tidle) cl.ctcus) t.clusters;
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

(* Perform the functional memory effect now and send the reply after the
   hit latency. *)
let service_pkg t pk =
  let tcu = pk.tcu and pc = pk.pc and addr = pk.addr in
  (match pk.kind with
  | Kload | Kpref ->
    pk.value <- Mem.read t.memory addr;
    if t.probed then t.probe.Probe.read ~tcu ~pc ~addr
  | Kstore ->
    Mem.write t.memory addr pk.value;
    if t.probed then t.probe.Probe.write ~tcu ~pc ~addr
  | Kpsm ->
    pk.inc <- Mem.fetch_add t.memory addr pk.inc;
    t.stats.Stats.psm_ops <- t.stats.Stats.psm_ops + 1;
    (* the psm word itself is the ordering primitive, not a plain access *)
    if t.probed then t.probe.Probe.sync ~tcu);
  pk.stage <- To_reply;
  Desim.Scheduler.schedule t.sched
    ~delay:(t.cfg.Config.cache_hit_latency * Desim.Clock.period t.clk_cache)
    pk.fire

(* service an MSHR chain (latest waiter first) in arrival order *)
let rec service_chain t pk =
  if pk != no_pkg then begin
    service_chain t pk.next;
    service_pkg t pk
  end

(* The line [pk] missed on arrived from DRAM: install it and service
   every package waiting on it, in arrival order. *)
let dram_fill t pk =
  let m = t.modules.(pk.lc.l_mod) in
  let line = Tags.line_of m.tags pk.addr in
  Tags.install m.tags line;
  if t.packaged then
    t.probe.Probe.package ~stage:"dram-fill" ~kind:"line" ~addr:line ~tcu:(-1) ~pc:(-1)
      ~module_:m.mid;
  match Hashtbl.find m.mshr line with
  | exception Not_found -> ()
  | latest ->
    Hashtbl.remove m.mshr line;
    service_chain t latest

let module_tick t (m : cache_module) =
  for _ = 1 to t.cfg.Config.cache_ports do
    if not (Ring.is_empty m.inq) then begin
      let pk = Ring.pop m.inq in
      let line = Tags.line_of m.tags pk.addr in
      if Tags.lookup m.tags pk.addr then begin
        t.stats.Stats.cache_hits <- t.stats.Stats.cache_hits + 1;
        pk.lc.l_hit <- true;
        emit_pkg t ~stage:"cache-hit" pk ~m:m.mid;
        service_pkg t pk
      end
      else begin
        t.stats.Stats.cache_misses <- t.stats.Stats.cache_misses + 1;
        emit_pkg t ~stage:"cache-miss" pk ~m:m.mid;
        match Hashtbl.find m.mshr line with
        | latest ->
          pk.next <- latest;
          Hashtbl.replace m.mshr line pk
        | exception Not_found ->
          pk.next <- no_pkg;
          Hashtbl.add m.mshr line pk;
          Ring.push t.dram_q pk;
          Desim.Clock.wake t.clk_dram
      end
    end
  done

let dram_tick t =
  for _ = 1 to t.cfg.Config.dram_bandwidth do
    if not (Ring.is_empty t.dram_q) then begin
      let pk = Ring.pop t.dram_q in
      t.stats.Stats.dram_reads <- t.stats.Stats.dram_reads + 1;
      t.dram_fills <- t.dram_fills + 1;
      pk.stage <- To_fill;
      Desim.Scheduler.schedule t.sched
        ~delay:(t.cfg.Config.dram_latency * Desim.Clock.period t.clk_dram)
        pk.fire
    end
  done

(* A package's scheduled event: the hop its stage names. *)
let pkg_event t pk =
  match pk.stage with
  | To_module ->
    let m = pk.lc.l_mod in
    pk.lc.l_arrive <- Desim.Scheduler.now t.sched;
    emit_pkg t ~stage:"module-arrive" pk ~m;
    Ring.push t.modules.(m).inq pk;
    (* arrival runs at prio_transfer: the cache tick at this instant (if
       any) already popped, so a sleeping cache domain resumes one period
       later — exactly when an ungated cache would next see the package *)
    Desim.Clock.wake t.clk_cache
  | To_fill ->
    t.dram_fills <- t.dram_fills - 1;
    dram_fill t pk
  | To_reply -> icn_reply t pk
  | To_cluster ->
    Ring.push t.clusters.(pk.cl).returns pk;
    t.queued <- t.queued + 1;
    Desim.Clock.wake t.clk_cluster

(* A package from the pool for [u]'s request of [kind], carrying the
   operands its last issue left in [u]'s context, stamped with its birth
   (outbox-enqueue) time and queued in the cluster outbox. *)
let request t (cl : cluster) (u : tcu) kind ~pc =
  let pk =
    if Ring.is_empty t.free_pkgs then begin
      let pk = new_pkg () in
      pk.fire <- (fun () -> pkg_event t pk);
      pk
    end
    else Ring.pop t.free_pkgs
  in
  let ctx = u.ctx in
  pk.kind <- kind;
  pk.addr <- ctx.F.addr;
  pk.cl <- cl.cid;
  pk.tcu <- u.tid;
  pk.pc <- pc;
  pk.dst <- ctx.F.dst;
  pk.ro <- ctx.F.ro;
  pk.nb <- ctx.F.nb;
  pk.value <- ctx.F.value;
  pk.inc <- ctx.F.inc;
  (* the trip sets every other stamp before a probe reads them *)
  pk.lc.l_born <- Desim.Scheduler.now t.sched;
  pk.lc.l_hit <- false;
  Ring.push cl.outbox pk;
  t.queued <- t.queued + 1

(* ------------------------------------------------------------------ *)
(* TCU execution *)

(* Close the request's lifecycle in the per-(cluster, module) latency
   histograms. *)
let observe_lifecycle t (cl : cluster) (lc : Probe.lifecycle) =
  match t.stats.Stats.req_lat with
  | None -> ()
  | Some rl ->
    let now = Desim.Scheduler.now t.sched and cluster = cl.cid and module_ = lc.l_mod in
    Stats.observe_req rl Stats.Licn_wait ~cluster ~module_ lc.l_icn_wait;
    Stats.observe_req rl
      (if lc.l_hit then Stats.Lservice_hit else Stats.Lservice_miss)
      ~cluster ~module_ (lc.l_svc - lc.l_arrive);
    Stats.observe_req rl Stats.Lreply ~cluster ~module_ (now - lc.l_svc);
    Stats.observe_req rl Stats.Ltotal ~cluster ~module_ (now - lc.l_born)

(* the reply ended [u]'s memory wait *)
let wake t (u : tcu) r_lc ~pref =
  if t.probed then t.probe.Probe.woken ~tcu:u.tid ~pref r_lc;
  set_state t u Trun

(* Deliver [pk]'s reply to its TCU, then return the package to the pool. *)
let deliver_reply t (cl : cluster) pk =
  let lc = pk.lc in
  if t.probed then begin
    let kind =
      match pk.kind with
      | Kstore when pk.nb -> "store-ack"
      | k -> kind_name k
    in
    t.probe.Probe.package ~stage:"reply" ~kind ~addr:pk.addr ~tcu:pk.tcu ~pc:pk.pc
      ~module_:(-1);
    t.probe.Probe.reply ~kind ~tcu:pk.tcu ~addr:pk.addr lc
  end;
  observe_lifecycle t cl lc;
  let u = cl.ctcus.(pk.tcu mod t.cfg.Config.tcus_per_cluster) in
  (match pk.kind with
  | Kload ->
    if pk.ro then Tags.install cl.rocache pk.addr;
    F.complete_load u.ctx pk.dst pk.value;
    if u.st = Tmemwait then wake t u lc ~pref:false
  | Kpref -> (
    match Prefetch_buffer.fill u.pbuf pk.addr pk.value with
    | None -> ()
    | Some dst ->
      F.complete_load u.ctx dst pk.value;
      if u.st = Tmemwait then wake t u lc ~pref:true)
  | Kstore ->
    if pk.nb then begin
      u.pending <- u.pending - 1;
      t.pending_total <- t.pending_total - 1;
      if u.st = Tfence && u.pending = 0 then begin
        set_state t u Trun;
        (* fence completes: stores drained *)
        if t.probed then t.probe.Probe.release ~tcu:u.tid
      end;
      maybe_join t
    end
    else if u.st = Tmemwait then (* blocking store ack *) wake t u lc ~pref:false
  | Kpsm ->
    if pk.dst <> 0 then u.ctx.F.regs.(pk.dst) <- pk.inc;
    if u.st = Tmemwait then wake t u lc ~pref:false);
  Ring.push t.free_pkgs pk

(* the prefix-sum [u] issued completes *)
let ps_done t (u : tcu) =
  let old = t.globals.(u.ps_g) in
  t.globals.(u.ps_g) <- old + u.ps_inc;
  if t.probed then t.probe.Probe.sync ~tcu:u.tid;
  if u.ps_dst <> 0 then u.ctx.F.regs.(u.ps_dst) <- old;
  if u.st = Tpswait then set_state t u Trun

(* Claim the first unit of [pool] free at [now] until [busy_until]. *)
let rec claim pool i ~now ~busy_until =
  if i >= Array.length pool then false
  else if pool.(i) <= now then begin
    pool.(i) <- busy_until;
    true
  end
  else claim pool (i + 1) ~now ~busy_until

let claim_fu t pool lat =
  let now = Desim.Scheduler.now t.sched in
  if claim pool 0 ~now ~busy_until:(now + (lat * Desim.Clock.period t.clk_cluster)) then lat
  else -1

(* Shared-FU grant for [ins]: its latency in cycles (0 when it needs no
   shared unit), or -1 when every unit of its class is busy. *)
let fu_grant t (cl : cluster) ins =
  match I.fu_class_of ins with
  | I.FU_MDU ->
    claim_fu t cl.mdu
      (match ins with
      | I.Mdu (I.Mul, _, _, _) -> t.cfg.Config.mul_latency
      | _ -> t.cfg.Config.div_latency)
  | I.FU_FPU ->
    claim_fu t cl.fpu
      (match ins with
      | I.Fpu1 (I.Fsqrt, _, _) -> t.cfg.Config.sqrt_latency
      | I.Fpu (I.Fdiv, _, _, _) -> t.cfg.Config.div_latency
      | _ -> t.cfg.Config.fpu_latency)
  | _ -> 0

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
  let fu_lat = fu_grant t cl ins in
  if fu_lat < 0 then begin
    (* shared unit busy: stall, retry next cycle *)
    t.stats.Stats.tcu_fuwait_cycles <- t.stats.Stats.tcu_fuwait_cycles + 1;
    if t.hears_issue then t.probe.Probe.stall ~tcu:u.tid ~pc
  end
  else begin
    let res = F.issue t.img u.ctx ~read_str:t.read_str in
    Stats.count_instr t.stats ~master:false ins;
    t.cluster_instrs.(cl.cid) <- t.cluster_instrs.(cl.cid) + 1;
    t.stats.Stats.tcu_busy_cycles <- t.stats.Stats.tcu_busy_cycles + 1;
    let addr = u.ctx.F.addr in
    if t.hears_issue then
      t.probe.Probe.issue ~tcu:u.tid ~pc ins
        ~addr:(match res with F.Load | F.Store | F.Psm | F.Prefetch -> addr | _ -> -1);
    match res with
    | F.Done ->
      if fu_lat > 1 then begin
        set_state t u Tfuwait;
        u.wait <- fu_lat - 1
      end
    | F.Load ->
      let ro = u.ctx.F.ro in
      if ro && Tags.lookup cl.rocache addr then begin
        t.stats.Stats.rocache_hits <- t.stats.Stats.rocache_hits + 1;
        if t.probed then t.probe.Probe.read ~tcu:u.tid ~pc ~addr;
        F.complete_load u.ctx u.ctx.F.dst (Mem.read t.memory addr);
        if t.cfg.Config.rocache_hit_latency > 1 then begin
          set_state t u Tfuwait;
          u.wait <- t.cfg.Config.rocache_hit_latency - 1
        end
      end
      else begin
        if ro then t.stats.Stats.rocache_misses <- t.stats.Stats.rocache_misses + 1;
        match Prefetch_buffer.lookup u.pbuf addr with
        | Prefetch_buffer.Hit v ->
          t.stats.Stats.prefetch_hits <- t.stats.Stats.prefetch_hits + 1;
          F.complete_load u.ctx u.ctx.F.dst v
        | Prefetch_buffer.In_flight ->
          t.stats.Stats.prefetch_late <- t.stats.Stats.prefetch_late + 1;
          Prefetch_buffer.wait_on u.pbuf addr u.ctx.F.dst;
          set_state t u Tmemwait
        | Prefetch_buffer.Miss ->
          t.stats.Stats.prefetch_misses <- t.stats.Stats.prefetch_misses + 1;
          request t cl u Kload ~pc;
          set_state t u Tmemwait
      end
    | F.Store ->
      (* rule 1 (same source, same destination order): the TCU's own store
         must not be shadowed by a stale prefetched value *)
      Prefetch_buffer.invalidate u.pbuf addr;
      request t cl u Kstore ~pc;
      if u.ctx.F.nb then begin
        t.stats.Stats.nb_stores <- t.stats.Stats.nb_stores + 1;
        u.pending <- u.pending + 1;
        t.pending_total <- t.pending_total + 1
      end
      else set_state t u Tmemwait
    | F.Psm ->
      request t cl u Kpsm ~pc;
      set_state t u Tmemwait
    | F.Prefetch ->
      t.stats.Stats.prefetch_issued <- t.stats.Stats.prefetch_issued + 1;
      if Prefetch_buffer.start u.pbuf addr then request t cl u Kpref ~pc
    | F.Ps { dst; g; inc } ->
      if inc <> 0 && inc <> 1 then
        fail "TCU %d: ps increment must be 0 or 1 (got %d)" u.tid inc;
      t.stats.Stats.ps_ops <- t.stats.Stats.ps_ops + 1;
      set_state t u Tpswait;
      u.ps_dst <- dst;
      u.ps_g <- g;
      u.ps_inc <- inc;
      let delay = t.cfg.Config.ps_latency * Desim.Clock.period t.clk_cluster in
      Desim.Scheduler.schedule t.sched ~delay u.ps_done
    | F.Chkid { id } ->
      if id <= t.spawn_bound then begin
        t.stats.Stats.virtual_threads <- t.stats.Stats.virtual_threads + 1
      end
      else begin
        set_state t u Tdone;
        t.done_count <- t.done_count + 1;
        if t.probed then t.probe.Probe.tcu_done ~tcu:u.tid;
        maybe_join t
      end
    | F.Fence ->
      t.stats.Stats.fences <- t.stats.Stats.fences + 1;
      if u.pending > 0 then set_state t u Tfence
      else if t.probed then t.probe.Probe.release ~tcu:u.tid (* completes at once *)
    | F.Output s -> Buffer.add_string t.out_buf s
    | F.Spawn _ -> fail "TCU %d executed spawn (nested spawns are serialized)" u.tid
    | F.Join -> fail "TCU %d reached the join instruction" u.tid
    | F.Halt -> fail "TCU %d executed halt" u.tid
    | F.Mfg _ | F.Mtg _ -> fail "TCU %d executed serial-only mfg/mtg" u.tid
  end

(* A runnable TCU's tick: issue, or one more cycle of FU latency. *)
let tcu_tick t (cl : cluster) (u : tcu) =
  match u.st with
  | Trun -> tcu_issue t cl u
  | Tfuwait ->
    t.stats.Stats.tcu_busy_cycles <- t.stats.Stats.tcu_busy_cycles + 1;
    if t.hears_wait then t.probe.Probe.wait ~tcu:u.tid Probe.Fu;
    if u.wait <= 1 then set_state t u Trun else u.wait <- u.wait - 1
  | Tidle | Tmemwait | Tpswait | Tfence | Tdone -> () (* not in the runnable set *)

(* [u]'s first waiting tick: the probes hear its wait begin. *)
let wait_begins t (cl : cluster) (u : tcu) =
  cl.entered.(u.tword) <- cl.entered.(u.tword) lxor u.tbit;
  if t.hears_wait then
    t.probe.Probe.wait ~tcu:u.tid
      (match u.st with Tmemwait -> Probe.Mem | Tpswait -> Probe.Ps | _ -> Probe.Fence)

(* Step the TCUs whose bits are set in [w], a word of the runnable and
   entered sets whose bit 0 is TCU [base], lowest first; [ent] is the
   entered set's word. *)
let rec step_word t (cl : cluster) base w ent =
  if w <> 0 then begin
    let b = w land -w in
    let u = cl.ctcus.(base + bit_index.(b mod 67)) in
    if ent land b = 0 then tcu_tick t cl u else wait_begins t cl u;
    step_word t cl base (w lxor b) ent
  end

(* Step the runnable and entered TCUs with index in [lo, hi), in index
   order.  A word is read when its turn comes: by then only TCUs already
   stepped have joined or left the sets, and those bits are masked off. *)
let step_tcus t (cl : cluster) lo hi =
  if lo < hi then
    for i = lo / set_bits to (hi - 1) / set_bits do
      let base = i * set_bits in
      let ent = cl.entered.(i) in
      let w = cl.runnable.(i) lor ent in
      let w = if lo > base then w land (-1 lsl (lo - base)) else w in
      let w = if hi - base < set_bits then w land ((1 lsl (hi - base)) - 1) else w in
      step_word t cl base w ent
    done

let cluster_tick t (cl : cluster) =
  if t.spawn_active || (not (Ring.is_empty cl.returns)) || not (Ring.is_empty cl.outbox)
  then begin
    (* phase 1: accept returning packages *)
    for _ = 1 to t.cfg.Config.cluster_return_width do
      if not (Ring.is_empty cl.returns) then begin
        t.queued <- t.queued - 1;
        deliver_reply t cl (Ring.pop cl.returns)
      end
    done;
    (* phase 2: step TCUs, rotating priority.  Only runnable TCUs have
       work; the waiting ones are counted in bulk, and a probe hears each
       wait once, at the TCU's turn in its first waiting tick.  No TCU
       leaves a wait state during phase 2 (replies arrive in phase 1,
       [ps_done] is an event of its own, and at a join nobody waits), so
       the counts taken now are this tick's waits, and the runnable TCUs
       issue in rotated order, claiming FUs and filling the outbox.  The
       counters are exact at every tick boundary, where hooks and
       plug-ins read them. *)
    if t.spawn_active then begin
      let n = Array.length cl.ctcus in
      let s = t.stats in
      s.Stats.tcu_memwait_cycles <- s.Stats.tcu_memwait_cycles + cl.n_mem;
      s.Stats.tcu_pswait_cycles <- s.Stats.tcu_pswait_cycles + cl.n_ps;
      step_tcus t cl cl.rr n;
      step_tcus t cl 0 cl.rr;
      cl.rr <- (if cl.rr + 1 < n then cl.rr + 1 else 0)
    end;
    (* phase 3: inject into the ICN *)
    for _ = 1 to t.cfg.Config.cluster_inject_width do
      if not (Ring.is_empty cl.outbox) then begin
        t.queued <- t.queued - 1;
        icn_send t ~cl:cl.cid (Ring.pop cl.outbox)
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Master TCU *)

let master_stall t lat =
  if lat > 1 then begin
    t.master_st <- Mstall;
    t.master_wait <- lat - 1
  end

let master_tick t =
  match t.master_st with
  | Mhalted | Mmemwait | Mspawnwait -> ()
  | Mstall ->
    if t.hears_wait then t.probe.Probe.wait ~tcu:(-1) Probe.Fu;
    if t.master_wait <= 1 then t.master_st <- Mrun
    else t.master_wait <- t.master_wait - 1
  | Mrun -> (
    let pc = t.master.F.pc in
    let ins = t.img.Isa.Program.instrs.(pc) in
    (* master handles mfg/mtg directly *)
    let res = F.issue t.img t.master ~read_str:t.read_str in
    Stats.count_instr t.stats ~master:true ins;
    let addr = t.master.F.addr in
    if t.hears_issue then
      t.probe.Probe.issue ~tcu:(-1) ~pc ins
        ~addr:(match res with F.Load | F.Store -> addr | _ -> -1);
    match res with
    | F.Done -> (
      (* multi-cycle master ALU ops *)
      match I.fu_class_of ins with
      | I.FU_MDU ->
        master_stall t
          (match ins with
          | I.Mdu (I.Mul, _, _, _) -> t.cfg.Config.mul_latency
          | _ -> t.cfg.Config.div_latency)
      | I.FU_FPU ->
        master_stall t
          (match ins with
          | I.Fpu1 (I.Fsqrt, _, _) -> t.cfg.Config.sqrt_latency
          | _ -> t.cfg.Config.fpu_latency)
      | _ -> ())
    | F.Load ->
      let dst = t.master.F.dst in
      if Tags.lookup t.master_cache addr then begin
        t.stats.Stats.master_cache_hits <- t.stats.Stats.master_cache_hits + 1;
        F.complete_load t.master dst (Mem.read t.memory addr);
        master_stall t t.cfg.Config.master_cache_hit_latency
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
    | F.Store ->
      (* write-through master cache; write buffer absorbs the latency *)
      Mem.write t.memory addr t.master.F.value;
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
                  set_state t u Trun;
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
    | F.Psm -> fail "master executed psm (parallel-only)"
    | F.Chkid _ -> fail "master executed chkid"
    | F.Prefetch -> () (* master prefetch: no-op *))

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
     | Mrun | Mstall -> false (* tick-driven *))
  && t.queued = 0

let cache_domain_idle t =
  Ring.is_empty t.dram_q
  && Array.for_all
       (fun m -> Ring.is_empty m.inq && Hashtbl.length m.mshr = 0)
       t.modules

let dram_domain_idle t = Ring.is_empty t.dram_q && t.dram_fills = 0

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

(* Periodic hooks are due on the cluster-clock grid ([cluster_ticks], the
   same gated or not).  Activity hooks bound the idle clock's sleep. *)
let sleep_cluster t =
  let until = List.fold_left (fun d h -> if h.h_active then min d h.h_due else d) max_int t.hooks in
  if until = max_int then Desim.Clock.sleep t.clk_cluster
  else Desim.Clock.sleep ~until t.clk_cluster

let add_hook t ~active ~interval run =
  if interval <= 0 then invalid_arg "periodic hook: interval must be positive";
  let h_due = max interval ((cluster_ticks t + interval - 1) / interval * interval) in
  t.hooks <- t.hooks @ [ { h_interval = interval; h_active = active; h_due; h_run = run } ];
  if active && Desim.Clock.sleeping t.clk_cluster then sleep_cluster t

let add_activity_plugin t ~interval hook = add_hook t ~active:true ~interval (hook t)
let add_passive_hook t ~interval run = add_hook t ~active:false ~interval run

let run_hooks t c =
  let g = c + Desim.Clock.skipped_ticks t.clk_cluster in
  List.iter
    (fun h ->
      if g >= h.h_due then begin
        h.h_due <- ((g / h.h_interval) + 1) * h.h_interval;
        h.h_run g
      end)
    t.hooks

(* Probes.  The attached list is precombined into one fan-out whenever
   it changes; detaching mid-notification is safe, as the notification
   in progress runs the old fan-out. *)

let refresh_probes t =
  t.probe <- Probe.combine t.probes;
  t.probed <- t.probes <> [];
  let n = Probe.nop and p = t.probe in
  t.hears_issue <- p.issue != n.issue || p.stall != n.stall;
  t.hears_wait <- p.wait != n.wait;
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
    Array.iter
      (fun cl -> Array.iter (fun u -> u.ps_done <- (fun () -> ps_done t u)) cl.ctcus)
      t.clusters;
    Desim.Clock.on_tick ~phase:0 t.clk_cluster (fun _ -> master_tick t);
    (* serial cycles skip the sweep: every cluster tick would be a no-op *)
    Desim.Clock.on_tick ~phase:1 t.clk_cluster (fun _ ->
        if t.spawn_active || t.queued > 0 then
          for i = 0 to Array.length t.clusters - 1 do
            cluster_tick t t.clusters.(i)
          done);
    Desim.Clock.on_tick ~phase:0 t.clk_cache (fun _ ->
        for i = 0 to Array.length t.modules - 1 do
          module_tick t t.modules.(i)
        done);
    Desim.Clock.on_tick ~phase:0 t.clk_dram (fun _ -> dram_tick t);
    (* periodic hooks, then the gating checks, after every work phase *)
    Desim.Clock.on_tick ~phase:100 t.clk_cluster (fun c ->
        if t.hooks != [] then run_hooks t c;
        if t.gating && cluster_domain_idle t then sleep_cluster t);
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

(* [until]: stop early at the first instant boundary where it holds *)
let run ?max_cycles ?until t =
  start t;
  (* a halted machine, run again or restored from a checkpoint taken
     after the halt, has nothing left to do: no cycle passes *)
  if not t.halted then begin
    let budget =
      match max_cycles with Some m -> m | None -> t.cfg.Config.max_cycles
    in
    Desim.Scheduler.stop t.sched ~time:(Desim.Scheduler.now t.sched + budget) ();
    let (_ : Desim.Scheduler.outcome) = Desim.Scheduler.run ?until t.sched in
    ()
  end;
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
  s_halted : bool;  (** taken after the master halted *)
}

(* The program a snapshot belongs to: its code and data layout. *)
let image_digest (img : Isa.Program.image) =
  Digest.string
    (Marshal.to_string (img.instrs, img.targets, img.data_base, img.entry)
       [ Marshal.No_sharing ])

let make_snapshot ~image ~mem ~regs ~fregs ~pc ~globals ~output =
  { s_image = image_digest image; s_mem = mem; s_regs = regs; s_fregs = fregs;
    s_pc = pc; s_globals = globals; s_output = output; s_stats = Stats.create ();
    s_icn_backlog = [||]; s_cluster_instrs = [||]; s_halted = false }

let is_quiescent t =
  (not t.spawn_active)
  && (match t.master_st with Mrun | Mhalted -> true | _ -> false)
  && t.pending_total = 0

(* Run until the machine reaches a quiescent point (a serial instruction
   boundary with nothing in flight) or halts: the end of the first cycle,
   counting from the next one, at which that holds, within 10M cycles.
   The serial windows between spawns are narrow, so the check is made
   at every instant boundary inside one run.  One plain cycle comes
   first: a fresh machine has events of the current instant still to
   run, and the check must not see that instant half done. *)
let run_to_quiescent t =
  let settled () = is_quiescent t || t.halted in
  if not (settled ()) then begin
    ignore (run ~max_cycles:1 t);
    if not (settled ()) then ignore (run ~max_cycles:(10_000_000 - 1) ~until:settled t)
  end;
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
    s_halted = t.halted;
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
  if s.s_halted then begin
    (* the saved run is over: {!run} executes nothing *)
    t.master_st <- Mhalted;
    t.halted <- true
  end
  else begin
    t.master_st <- Mrun;
    t.halted <- false;
    (* a gated machine may have parked the cluster clock (e.g. after the
       halt that preceded this restore); Mrun needs it ticking again.  The
       wake is grid-aligned, so the resume time matches an ungated run. *)
    Desim.Clock.wake t.clk_cluster
  end;
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
   once its digest checks out, since Marshal itself is not type-safe.
   Version 3: the memory holds only the data and stack words in use.
   Version 4: a snapshot records whether the master had halted. *)
let snapshot_magic = "XMT-SNAP"
let snapshot_version = 4
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
