(** Instruction and activity counters (paper §III-B).

    Instruction counters record executed instructions per functional-unit
    class; activity counters monitor component state over time (TCU busy /
    memory-wait cycles, ICN traffic, cache hits/misses, DRAM accesses).
    Both can be read during the run (through the activity plug-in
    interface) and are reported at the end of the simulation. *)

(* ------------------------------------------------------------------ *)
(* Memory-request lifecycle latencies (per (cluster, module) stage
   histograms).  The machine stamps every package at issue, ICN
   injection, module arrival, service completion and reply delivery;
   the deltas land here.  Integer cycle buckets keep the hot path to a
   couple of array writes per completed request. *)

(** Upper bounds, in cycles, shared by every latency histogram. *)
let lat_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]

type lat_stage = Licn_wait | Lservice_hit | Lservice_miss | Lreply | Ltotal

let all_lat_stages = [ Licn_wait; Lservice_hit; Lservice_miss; Lreply; Ltotal ]

let lat_stage_name = function
  | Licn_wait -> "icn_wait"
  | Lservice_hit -> "service_hit"
  | Lservice_miss -> "service_miss"
  | Lreply -> "reply"
  | Ltotal -> "total"

(* One histogram is [hist_words] consecutive ints: the counts per
   {!lat_bounds} bucket plus overflow, then sum, count, min and max (min
   and max are meaningful once count > 0). *)
let nbuckets = Array.length lat_bounds + 1
let o_sum = nbuckets
let o_count = nbuckets + 1
let o_min = nbuckets + 2
let o_max = nbuckets + 3
let hist_words = nbuckets + 4

type req_latency = {
  rl_clusters : int;
  rl_modules : int;
  (* per stage, one flat array of the (cluster, module) histograms; the
     histogram of (cl, m) starts at (cl * modules + m) * hist_words *)
  rl_icn_wait : int array;
  rl_service_hit : int array;
  rl_service_miss : int array;
  rl_reply : int array;
  rl_total : int array;
}

let make_req_latency ~clusters ~modules =
  let mk () = Array.make (clusters * modules * hist_words) 0 in
  {
    rl_clusters = clusters;
    rl_modules = modules;
    rl_icn_wait = mk ();
    rl_service_hit = mk ();
    rl_service_miss = mk ();
    rl_reply = mk ();
    rl_total = mk ();
  }

let lat_stage_hists rl = function
  | Licn_wait -> rl.rl_icn_wait
  | Lservice_hit -> rl.rl_service_hit
  | Lservice_miss -> rl.rl_service_miss
  | Lreply -> rl.rl_reply
  | Ltotal -> rl.rl_total

(* bit lengths of 0 .. 31 *)
let small_bits =
  let rec len x = if x = 0 then 0 else 1 + len (x lsr 1) in
  Array.init 32 len

(** The histogram bucket of [v]: the first {!lat_bounds} entry [>= v], or
    the overflow bucket.  The bounds are [2^0 .. 2^10], so that is the bit
    length of [v - 1] for [1 < v <= 1024]. *)
let bucket v =
  if v <= 1 then 0
  else if v > 1024 then nbuckets - 1
  else
    let x = v - 1 in
    let hi = x lsr 5 in
    if hi > 0 then 5 + small_bits.(hi) else small_bits.(x)

let observe_req rl stage ~cluster ~module_ v =
  if cluster >= 0 && cluster < rl.rl_clusters && module_ >= 0
     && module_ < rl.rl_modules
  then begin
    let h = lat_stage_hists rl stage and base = ((cluster * rl.rl_modules) + module_) * hist_words in
    let v = max 0 v in
    let i = base + bucket v in
    h.(i) <- h.(i) + 1;
    h.(base + o_sum) <- h.(base + o_sum) + v;
    let n = h.(base + o_count) in
    h.(base + o_count) <- n + 1;
    if n = 0 || v < h.(base + o_min) then h.(base + o_min) <- v;
    if n = 0 || v > h.(base + o_max) then h.(base + o_max) <- v
  end

let copy_req_latency rl =
  {
    rl with
    rl_icn_wait = Array.copy rl.rl_icn_wait;
    rl_service_hit = Array.copy rl.rl_service_hit;
    rl_service_miss = Array.copy rl.rl_service_miss;
    rl_reply = Array.copy rl.rl_reply;
    rl_total = Array.copy rl.rl_total;
  }

type t = {
  mutable cycles : int;  (** simulated cycles at program completion *)
  instr_by_class : int array;  (** indexed by Instr.fu_class order *)
  mutable master_instrs : int;
  mutable tcu_instrs : int;
  (* activity counters *)
  mutable tcu_busy_cycles : int;
  mutable tcu_memwait_cycles : int;
  mutable tcu_fuwait_cycles : int;
  mutable tcu_pswait_cycles : int;
  mutable icn_packets : int;
  mutable icn_occupancy : int;  (** sum of in-flight packets per cycle *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable rocache_hits : int;
  mutable rocache_misses : int;
  mutable master_cache_hits : int;
  mutable master_cache_misses : int;
  mutable dram_reads : int;
  mutable prefetch_hits : int;
  mutable prefetch_misses : int;  (** loads that found no buffered value *)
  mutable prefetch_late : int;
      (** loads that attached to a still-in-flight prefetch *)
  mutable prefetch_issued : int;
  mutable prefetch_evicted : int;
  mutable ps_ops : int;
  mutable psm_ops : int;
  mutable spawns : int;
  mutable virtual_threads : int;
  mutable nb_stores : int;
  mutable fences : int;
  mutable req_lat : req_latency option;
      (** per-(cluster, module) request-lifecycle latency histograms; the
          machine installs one sized to its configuration at creation *)
}

(* position in Isa.Instr.all_fu_classes *)
let fu_index = function
  | Isa.Instr.FU_ALU -> 0
  | FU_BR -> 1
  | FU_SFT -> 2
  | FU_MDU -> 3
  | FU_FPU -> 4
  | FU_MEM -> 5
  | FU_PS -> 6
  | FU_CTRL -> 7

let create () =
  {
    cycles = 0;
    instr_by_class = Array.make (List.length Isa.Instr.all_fu_classes) 0;
    master_instrs = 0;
    tcu_instrs = 0;
    tcu_busy_cycles = 0;
    tcu_memwait_cycles = 0;
    tcu_fuwait_cycles = 0;
    tcu_pswait_cycles = 0;
    icn_packets = 0;
    icn_occupancy = 0;
    cache_hits = 0;
    cache_misses = 0;
    rocache_hits = 0;
    rocache_misses = 0;
    master_cache_hits = 0;
    master_cache_misses = 0;
    dram_reads = 0;
    prefetch_hits = 0;
    prefetch_misses = 0;
    prefetch_late = 0;
    prefetch_issued = 0;
    prefetch_evicted = 0;
    ps_ops = 0;
    psm_ops = 0;
    spawns = 0;
    virtual_threads = 0;
    nb_stores = 0;
    fences = 0;
    req_lat = None;
  }

(** Deep copy — checkpoint payload. *)
let copy t =
  {
    t with
    instr_by_class = Array.copy t.instr_by_class;
    req_lat = Option.map copy_req_latency t.req_lat;
  }

(** Overwrite [dst] in place with [src]'s counters (restore path: the
    machine and any attached plug-in keep their reference to the same
    record, so the copy must happen field-by-field, not by swapping the
    record). *)
let blit ~src ~dst =
  Array.blit src.instr_by_class 0 dst.instr_by_class 0
    (Array.length src.instr_by_class);
  dst.cycles <- src.cycles;
  dst.master_instrs <- src.master_instrs;
  dst.tcu_instrs <- src.tcu_instrs;
  dst.tcu_busy_cycles <- src.tcu_busy_cycles;
  dst.tcu_memwait_cycles <- src.tcu_memwait_cycles;
  dst.tcu_fuwait_cycles <- src.tcu_fuwait_cycles;
  dst.tcu_pswait_cycles <- src.tcu_pswait_cycles;
  dst.icn_packets <- src.icn_packets;
  dst.icn_occupancy <- src.icn_occupancy;
  dst.cache_hits <- src.cache_hits;
  dst.cache_misses <- src.cache_misses;
  dst.rocache_hits <- src.rocache_hits;
  dst.rocache_misses <- src.rocache_misses;
  dst.master_cache_hits <- src.master_cache_hits;
  dst.master_cache_misses <- src.master_cache_misses;
  dst.dram_reads <- src.dram_reads;
  dst.prefetch_hits <- src.prefetch_hits;
  dst.prefetch_misses <- src.prefetch_misses;
  dst.prefetch_late <- src.prefetch_late;
  dst.prefetch_issued <- src.prefetch_issued;
  dst.prefetch_evicted <- src.prefetch_evicted;
  dst.ps_ops <- src.ps_ops;
  dst.psm_ops <- src.psm_ops;
  dst.spawns <- src.spawns;
  dst.virtual_threads <- src.virtual_threads;
  dst.nb_stores <- src.nb_stores;
  dst.fences <- src.fences;
  dst.req_lat <- Option.map copy_req_latency src.req_lat

(* [n] executions of [ins] *)
let count_instrs t ~master ins n =
  let i = fu_index (Isa.Instr.fu_class_of ins) in
  t.instr_by_class.(i) <- t.instr_by_class.(i) + n;
  if master then t.master_instrs <- t.master_instrs + n
  else t.tcu_instrs <- t.tcu_instrs + n

let count_instr t ~master ins = count_instrs t ~master ins 1

let total_instrs t = t.master_instrs + t.tcu_instrs

let by_class t =
  List.mapi
    (fun i c -> (Isa.Instr.fu_class_name c, t.instr_by_class.(i)))
    Isa.Instr.all_fu_classes

(** Export every counter into a metrics registry (call once per fresh
    registry; counters accumulate).  Metric names follow the [sim.*]
    convention documented in the README's Observability section. *)
let rec export t (reg : Obs.Metrics.t) =
  let c ?labels name v = Obs.Metrics.inc ~by:v (Obs.Metrics.counter reg ?labels name) in
  let g ?labels name v = Obs.Metrics.set (Obs.Metrics.gauge reg ?labels name) v in
  c "sim.cycles" t.cycles;
  c ~labels:[ ("unit", "master") ] "sim.instructions" t.master_instrs;
  c ~labels:[ ("unit", "tcu") ] "sim.instructions" t.tcu_instrs;
  List.iter
    (fun (cls, v) -> c ~labels:[ ("class", cls) ] "sim.instructions_by_class" v)
    (by_class t);
  c "sim.spawns" t.spawns;
  c "sim.virtual_threads" t.virtual_threads;
  c "sim.tcu.busy_cycles" t.tcu_busy_cycles;
  c "sim.tcu.memwait_cycles" t.tcu_memwait_cycles;
  c "sim.tcu.fuwait_cycles" t.tcu_fuwait_cycles;
  c "sim.tcu.pswait_cycles" t.tcu_pswait_cycles;
  c "sim.icn.packets" t.icn_packets;
  c "sim.icn.occupancy" t.icn_occupancy;
  let cache name hits misses =
    c ~labels:[ ("cache", name); ("outcome", "hit") ] "sim.cache.accesses" hits;
    c ~labels:[ ("cache", name); ("outcome", "miss") ] "sim.cache.accesses" misses;
    let total = hits + misses in
    g ~labels:[ ("cache", name) ] "sim.cache.hit_rate"
      (if total = 0 then 0.0 else float_of_int hits /. float_of_int total)
  in
  cache "shared" t.cache_hits t.cache_misses;
  cache "ro" t.rocache_hits t.rocache_misses;
  cache "master" t.master_cache_hits t.master_cache_misses;
  c "sim.dram.reads" t.dram_reads;
  c "sim.prefetch.issued" t.prefetch_issued;
  c "sim.prefetch.hits" t.prefetch_hits;
  c "sim.prefetch.misses" t.prefetch_misses;
  c "sim.prefetch.late" t.prefetch_late;
  c "sim.prefetch.evicted" t.prefetch_evicted;
  c "sim.ps_ops" t.ps_ops;
  c "sim.psm_ops" t.psm_ops;
  c "sim.nb_stores" t.nb_stores;
  c "sim.fences" t.fences;
  export_req_lat t reg

(* Memory-request lifecycle latencies as registry histograms:
   [sim.mem.request_latency{stage, cluster, module}] for every populated
   (cluster, module) pair plus a per-stage aggregate with only the
   [stage] label.  Percentiles come out in the JSON export for free. *)
and export_req_lat t reg =
  match t.req_lat with
  | None -> ()
  | Some rl ->
    let buckets = Array.to_list (Array.map float_of_int lat_bounds) in
    let help = "memory-request latency in cycles, by lifecycle stage" in
    let add (h : int array) base labels =
      let dst =
        Obs.Metrics.histogram reg ~help ~labels ~buckets "sim.mem.request_latency"
      in
      for i = 0 to nbuckets - 1 do
        dst.Obs.Metrics.h_counts.(i) <- dst.Obs.Metrics.h_counts.(i) + h.(base + i)
      done;
      dst.Obs.Metrics.h_sum <- dst.Obs.Metrics.h_sum +. float_of_int h.(base + o_sum);
      dst.Obs.Metrics.h_count <- dst.Obs.Metrics.h_count + h.(base + o_count);
      let mn = float_of_int h.(base + o_min) and mx = float_of_int h.(base + o_max) in
      if mn < dst.Obs.Metrics.h_min then dst.Obs.Metrics.h_min <- mn;
      if mx > dst.Obs.Metrics.h_max then dst.Obs.Metrics.h_max <- mx
    in
    List.iter
      (fun stage ->
        let name = lat_stage_name stage in
        let h = lat_stage_hists rl stage in
        for idx = 0 to (rl.rl_clusters * rl.rl_modules) - 1 do
          let base = idx * hist_words in
          if h.(base + o_count) > 0 then begin
            let cl = idx / rl.rl_modules and m = idx mod rl.rl_modules in
            add h base
              [ ("stage", name); ("cluster", string_of_int cl);
                ("module", string_of_int m) ];
            add h base [ ("stage", name) ]
          end
        done)
      all_lat_stages

let to_string t =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "cycles:            %d\n" t.cycles;
  pf "instructions:      %d (master %d, TCU %d)\n" (total_instrs t)
    t.master_instrs t.tcu_instrs;
  List.iter (fun (n, c) -> if c > 0 then pf "  %-4s             %d\n" n c) (by_class t);
  pf "spawns:            %d (virtual threads %d)\n" t.spawns t.virtual_threads;
  pf "TCU busy cycles:   %d\n" t.tcu_busy_cycles;
  pf "TCU mem-wait:      %d  fu-wait: %d  ps-wait: %d\n" t.tcu_memwait_cycles
    t.tcu_fuwait_cycles t.tcu_pswait_cycles;
  pf "ICN packets:       %d\n" t.icn_packets;
  pf "cache hits/misses: %d/%d\n" t.cache_hits t.cache_misses;
  pf "master cache h/m:  %d/%d\n" t.master_cache_hits t.master_cache_misses;
  pf "ro-cache h/m:      %d/%d\n" t.rocache_hits t.rocache_misses;
  pf "DRAM reads:        %d\n" t.dram_reads;
  pf "prefetch issued/hit/late/evicted: %d/%d/%d/%d\n" t.prefetch_issued
    t.prefetch_hits t.prefetch_late t.prefetch_evicted;
  pf "ps/psm ops:        %d/%d\n" t.ps_ops t.psm_ops;
  pf "nb stores:         %d  fences: %d\n" t.nb_stores t.fences;
  (match t.req_lat with
  | None -> ()
  | Some rl ->
    let sum = ref 0 and cnt = ref 0 in
    for idx = 0 to (rl.rl_clusters * rl.rl_modules) - 1 do
      sum := !sum + rl.rl_total.((idx * hist_words) + o_sum);
      cnt := !cnt + rl.rl_total.((idx * hist_words) + o_count)
    done;
    let sum = !sum and cnt = !cnt in
    if cnt > 0 then
      pf "mem round-trip:    %d requests, mean %.1f cycles\n" cnt
        (float_of_int sum /. float_of_int cnt));
  Buffer.contents b
