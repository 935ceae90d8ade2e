(** Cycle-accounting profiler: per-TCU CPI stacks with source attribution.

    Every TCU cycle of a profiled run is attributed to exactly one bucket
    — compute (issue + FU latency + FU structural stalls), spawn/join
    overhead, ICN round-trip, cache-hit service, DRAM queueing+latency,
    prefetch-covered wait, or fence/ps serialization — with idle derived
    by subtraction so the per-TCU stack always sums exactly to the run's
    total TCU-cycles.  Cycles are simultaneously charged to the issuing
    program counter; joined with the image's [.loc] source map
    ([xmtcc -g]) that yields per-source-line hot-spot tables and a
    flame-style top-down view.

    The profiler is a passive {!Probe}: it never schedules events, wakes
    clocks or touches machine state, so attaching it cannot perturb
    cycles, stats or traces (checked by the equivalence oracle's probe
    variant, [test/test_oracle.ml]).

    Wait episodes are counted from {!Machine.cluster_ticks} stamps taken
    when the probe hears the wait begin and end, not tick by tick.
    Memory-wait episodes are accounted when the reply arrives: the ticks
    a TCU spent in [Tmemwait] are split across the ICN / cache-hit / DRAM
    buckets proportionally to the request's lifecycle stamps, using
    cumulative integer floors so the per-bucket integers sum exactly to
    the ticks waited.  A wait that ends with a prefetch-buffer fill goes
    to the prefetch-covered bucket instead (the prefetch was issued but
    arrived late; those cycles measure the uncovered remainder). *)

type bucket =
  | Compute  (** instruction issue, FU latency and FU structural stalls *)
  | Spawn_join  (** spawn broadcast and join barrier overhead windows *)
  | Icn  (** request/reply transport and merge contention *)
  | Cache_hit  (** cache-module service at hit latency *)
  | Dram  (** miss service beyond the hit latency: DRAM queueing + fill *)
  | Prefetch_covered  (** waits completed by an in-flight prefetch *)
  | Fence_ps  (** fence drain and ps/psm serialization stalls *)

let n_buckets = 7

let bucket_index = function
  | Compute -> 0
  | Spawn_join -> 1
  | Icn -> 2
  | Cache_hit -> 3
  | Dram -> 4
  | Prefetch_covered -> 5
  | Fence_ps -> 6

let bucket_names =
  [| "compute"; "spawn_join"; "icn"; "cache_hit"; "dram"; "prefetch_covered";
     "fence_ps" |]

type t = {
  m : Machine.t;
  n_tcus : int;
  tcus_per_cluster : int;
  per_tcu : int array array;  (** [tcu].(bucket) cycle counts *)
  master : int array;  (** master TCU bucket cycle counts *)
  pc_cycles : int array;  (** attributed cycles per program counter *)
  last_pc : int array;  (** per TCU: pc of the last issued instruction *)
  mw_since : int array;  (** per TCU: first tick of the open memory wait, or -1 *)
  fp_since : int array;  (** per TCU: first tick of the open fence or ps wait, or -1 *)
  mutable master_last_pc : int;
  mutable master_stall : bucket;  (** why the master entered Mstall *)
  mutable mem_ops : int;  (** memory instructions issued (both TCU kinds) *)
  base_ticks : int;  (** cluster-grid ticks already elapsed at attach *)
}

let create m =
  let cfg = Machine.config m in
  let n_tcus = cfg.Config.num_clusters * cfg.Config.tcus_per_cluster in
  {
    m;
    n_tcus;
    tcus_per_cluster = cfg.Config.tcus_per_cluster;
    per_tcu = Array.init n_tcus (fun _ -> Array.make n_buckets 0);
    master = Array.make n_buckets 0;
    pc_cycles = Array.make (max 1 (Array.length (Machine.image m).Isa.Program.instrs)) 0;
    last_pc = Array.make (max 1 n_tcus) (-1);
    mw_since = Array.make (max 1 n_tcus) (-1);
    fp_since = Array.make (max 1 n_tcus) (-1);
    master_last_pc = -1;
    master_stall = Compute;
    mem_ops = 0;
    base_ticks = Machine.cluster_ticks m;
  }

(* The counters below run once per profiled TCU-cycle, so they avoid
   redundant bounds checks: [bucket_index] is < [n_buckets] (= row
   length) by construction, and [attribute]'s explicit range test makes
   the element accesses safe. *)

let[@inline] attribute p ~pc n =
  if pc >= 0 && pc < Array.length p.pc_cycles then
    Array.unsafe_set p.pc_cycles pc (Array.unsafe_get p.pc_cycles pc + n)

let count p ~tcu ~pc b n =
  let row = p.per_tcu.(tcu) in
  let i = bucket_index b in
  Array.unsafe_set row i (Array.unsafe_get row i + n);
  attribute p ~pc n

(* ---- TCU-side events ---- *)

(* one compute cycle charged to [pc]: an issue, a shared-FU stall (the
   instruction retries next cycle) or a cycle of FU latency; hand-
   flattened (no [count] call) to keep the profiled hot path one call
   deep *)
let[@inline] compute p ~tcu ~pc =
  let row = p.per_tcu.(tcu) in
  Array.unsafe_set row 0 (Array.unsafe_get row 0 + 1) (* Compute *);
  attribute p ~pc 1

let[@inline] tcu_issue p ~tcu ~pc ~mem =
  p.last_pc.(tcu) <- pc;
  if mem then p.mem_ops <- p.mem_ops + 1;
  compute p ~tcu ~pc

(* Ticks waited by the episode begun at tick [since] (-1: none heard).
   An end heard in phase 1 of the current tick (a reply, a fence
   release) waited up to the tick before; an episode still open after a
   tick, or ended between ticks (a prefix-sum), waited [through] it. *)
let waited p since ~through =
  if since < 0 then 0 else Machine.cluster_ticks p.m - since + if through then 1 else 0

(* A fence or ps wait ends: charge it to the instruction that caused it. *)
let end_fence_ps p ~tcu ~through =
  let ticks = waited p p.fp_since.(tcu) ~through in
  p.fp_since.(tcu) <- -1;
  if ticks > 0 then count p ~tcu ~pc:p.last_pc.(tcu) Fence_ps ticks

(* A memory wait ends at the reply that woke the TCU.  A wait an
   in-flight prefetch completed is prefetch-covered; any other is split
   across the request's ICN / cache-hit / DRAM lifecycle components in
   simulated time, with cumulative integer floors, so the assigned
   integers sum exactly to the ticks waited. *)
let woken p ~tcu ~pref (lc : Probe.lifecycle) =
  let ticks = waited p p.mw_since.(tcu) ~through:false and pc = p.last_pc.(tcu) in
  p.mw_since.(tcu) <- -1;
  if ticks > 0 && pref then count p ~tcu ~pc Prefetch_covered ticks
  else if ticks > 0 then begin
    let hit_lat =
      (Machine.config p.m).Config.cache_hit_latency * Machine.period p.m Machine.Caches
    in
    let svc = lc.l_svc - lc.l_arrive in
    let hit = if lc.l_hit then svc else min hit_lat svc in
    let w_icn = max 0 (lc.l_arrive - lc.l_born + (Machine.cycles p.m - lc.l_svc))
    and w_hit = max 0 hit
    and w_dram = max 0 (svc - hit) in
    let total = w_icn + w_hit + w_dram in
    if total <= 0 then count p ~tcu ~pc Icn ticks
    else begin
      (* cumulative floors, straight-lined (no per-reply allocation) *)
      let upto_icn = ticks * w_icn / total and upto_hit = ticks * (w_icn + w_hit) / total in
      if upto_icn > 0 then count p ~tcu ~pc Icn upto_icn;
      if upto_hit > upto_icn then count p ~tcu ~pc Cache_hit (upto_hit - upto_icn);
      if ticks > upto_hit then count p ~tcu ~pc Dram (ticks - upto_hit)
    end
  end

(* ---- master-TCU events ---- *)

let master_count p ~pc b n =
  let i = bucket_index b in
  p.master.(i) <- p.master.(i) + n;
  attribute p ~pc n

let master_issue p ~pc ~mem =
  p.master_last_pc <- pc;
  if mem then p.mem_ops <- p.mem_ops + 1;
  master_count p ~pc Compute 1

let master_wait p = master_count p ~pc:p.master_last_pc p.master_stall 1
let master_mem p ~ticks =
  if ticks > 0 then master_count p ~pc:p.master_last_pc Dram ticks

let master_spawn_join p ~pc ~ticks = if ticks > 0 then master_count p ~pc Spawn_join ticks

let probe p =
  let cfg = Machine.config p.m in
  {
    Probe.nop with
    name = "profile";
    issue =
      (fun ~tcu ~pc ins ~addr ->
        if tcu >= 0 then tcu_issue p ~tcu ~pc ~mem:(addr >= 0)
        else begin
          master_issue p ~pc ~mem:(addr >= 0);
          (* the master stalls right after an issue, on a multi-cycle op
             or on a load that hit its cache *)
          p.master_stall <- (if addr >= 0 then Cache_hit else Compute);
          match ins with
          | Isa.Instr.Spawn _ -> master_spawn_join p ~pc ~ticks:cfg.Config.spawn_overhead
          | _ -> ()
        end);
    stall = (fun ~tcu ~pc -> compute p ~tcu ~pc);
    wait =
      (fun ~tcu w ->
        match w with
        | Probe.Fu -> if tcu < 0 then master_wait p else compute p ~tcu ~pc:p.last_pc.(tcu)
        | Probe.Mem -> p.mw_since.(tcu) <- Machine.cluster_ticks p.m
        | Probe.Ps | Probe.Fence -> p.fp_since.(tcu) <- Machine.cluster_ticks p.m);
    woken = woken p;
    (* a ps completes between ticks; a psm, heard at its module, ends no
       fence or ps wait *)
    sync = (fun ~tcu -> end_fence_ps p ~tcu ~through:true);
    release = (fun ~tcu -> end_fence_ps p ~tcu ~through:false);
    join = (fun ~pc -> master_spawn_join p ~pc ~ticks:cfg.Config.join_overhead);
    (* the master was parked the whole window: DRAM wait, in grid ticks *)
    master_mem =
      (fun ~waited ->
        master_mem p ~ticks:(waited / max 1 (Machine.period p.m Machine.Clusters)));
  }

(* ---- sampling accessors: the interval profiler ({!Plugin.attach_profiler}) reads
   these so both views share one event source ---- *)

let compute_cycles p =
  let c = ref p.master.(bucket_index Compute) in
  Array.iter (fun row -> c := !c + row.(bucket_index Compute)) p.per_tcu;
  !c

(* a bucket row's memory-wait cycles *)
let memory row =
  row.(bucket_index Icn) + row.(bucket_index Cache_hit) + row.(bucket_index Dram)
  + row.(bucket_index Prefetch_covered)

let memwait_cycles p =
  let c = ref 0 in
  Array.iter (fun row -> c := !c + memory row) p.per_tcu;
  (* open episodes count as wait already accrued *)
  Array.iter (fun since -> c := !c + waited p since ~through:true) p.mw_since;
  !c

let mem_ops p = p.mem_ops

(* ------------------------------------------------------------------ *)
(* Reports *)

type row = { r_buckets : int array; r_idle : int }

type line_cost = { lc_fn : string; lc_line : int; lc_cycles : int }

type attribution = {
  a_nonidle : int;  (** counted (non-idle) cycles across TCUs + master *)
  a_attributed : int;  (** of those, cycles with a known source location *)
  a_by_func : (string * int) list;  (** sorted by cycles, descending *)
  a_by_line : line_cost list;  (** sorted by cycles, descending *)
  a_by_pc : (int * int) list;  (** top (pc, cycles), descending *)
}

type report = {
  rp_total : int;  (** grid ticks per TCU over the profiled span *)
  rp_tcus : row array;
  rp_clusters : row array;
  rp_master : row;
  rp_aggregate : row;  (** all TCUs + master *)
  rp_attr : attribution;
  rp_has_debug : bool;
}

let sum_row buckets total = { r_buckets = buckets; r_idle = total - Array.fold_left ( + ) 0 buckets }

(** Attach a fresh profiler to [m]; it accounts every cycle from now on. *)
let attach m =
  let p = create m in
  ignore (Machine.attach m (probe p) : unit -> unit);
  p

(** Fold the raw accounting into a report: per-TCU / per-cluster /
    aggregate CPI stacks over the ticks elapsed since attachment, joined
    with the image's source map ([xmtcc -g]) for per-line and
    per-function attribution. *)
let report p =
  let total_ticks = Machine.cluster_ticks p.m - p.base_ticks in
  let locs = (Machine.image p.m).Isa.Program.locs in
  (* a run cut off mid-wait leaves open episodes; count them through the
     last tick, memory waits into the ICN bucket (the request is
     somewhere in transit), so non-idle cycles never silently vanish, and
     go on from the next tick *)
  let close since b =
    Array.iteri
      (fun tcu s ->
        count p ~tcu ~pc:p.last_pc.(tcu) b (waited p s ~through:true);
        if s >= 0 then since.(tcu) <- Machine.cluster_ticks p.m + 1)
      since
  in
  close p.mw_since Icn;
  close p.fp_since Fence_ps;
  let total = max 0 total_ticks in
  let tcus = Array.map (fun b -> sum_row (Array.copy b) total) p.per_tcu in
  let n_clusters =
    if p.tcus_per_cluster <= 0 then 1
    else (p.n_tcus + p.tcus_per_cluster - 1) / p.tcus_per_cluster
  in
  let clusters =
    Array.init (max 1 n_clusters) (fun c ->
        let buckets = Array.make n_buckets 0 in
        let lo = c * p.tcus_per_cluster in
        let hi = min p.n_tcus (lo + p.tcus_per_cluster) in
        for u = lo to hi - 1 do
          Array.iteri (fun i v -> buckets.(i) <- buckets.(i) + v) p.per_tcu.(u)
        done;
        sum_row buckets (total * max 0 (hi - lo)))
  in
  let master = sum_row (Array.copy p.master) total in
  let aggregate =
    let buckets = Array.copy p.master in
    Array.iter
      (fun row -> Array.iteri (fun i v -> buckets.(i) <- buckets.(i) + v) row)
      p.per_tcu;
    sum_row buckets (total * (p.n_tcus + 1))
  in
  let nonidle = Array.fold_left ( + ) 0 aggregate.r_buckets in
  let loc_of pc = if pc >= 0 && pc < Array.length locs then locs.(pc) else None in
  let has_debug = Array.exists Option.is_some locs in
  let attributed = ref 0 in
  let by_line = Hashtbl.create 64 and by_func = Hashtbl.create 16 in
  let by_pc = ref [] in
  Array.iteri
    (fun pc n ->
      if n > 0 then begin
        by_pc := (pc, n) :: !by_pc;
        match loc_of pc with
        | None -> ()
        | Some (line, fn) ->
          attributed := !attributed + n;
          let bump tbl key =
            Hashtbl.replace tbl key
              (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))
          in
          bump by_line (fn, line);
          bump by_func fn
      end)
    p.pc_cycles;
  let desc f = List.sort (fun a b -> compare (f b, a) (f a, b)) in
  let a_by_line =
    Hashtbl.fold
      (fun (fn, line) c acc -> { lc_fn = fn; lc_line = line; lc_cycles = c } :: acc)
      by_line []
    |> desc (fun l -> l.lc_cycles)
  in
  let a_by_func =
    Hashtbl.fold (fun fn c acc -> (fn, c) :: acc) by_func []
    |> desc snd
  in
  let a_by_pc = desc snd !by_pc in
  {
    rp_total = total;
    rp_tcus = tcus;
    rp_clusters = clusters;
    rp_master = master;
    rp_aggregate = aggregate;
    rp_attr =
      {
        a_nonidle = nonidle;
        a_attributed = !attributed;
        a_by_func;
        a_by_line;
        a_by_pc;
      };
    rp_has_debug = has_debug;
  }

let attribution_rate rp =
  if rp.rp_attr.a_nonidle = 0 then 1.0
  else float_of_int rp.rp_attr.a_attributed /. float_of_int rp.rp_attr.a_nonidle

(* ---- xmt.profile.v1 ---- *)

module J = Obs.Json

let row_json r =
  J.Obj
    (Array.to_list (Array.mapi (fun i v -> (bucket_names.(i), J.Int v)) r.r_buckets)
    @ [ ("idle", J.Int r.r_idle) ])

let line_label lc =
  if lc.lc_line = 0 then Printf.sprintf "%s:<prologue>" lc.lc_fn
  else Printf.sprintf "%s:%d" lc.lc_fn lc.lc_line

let to_json rp =
  let rows_of arr label =
    J.List
      (Array.to_list
         (Array.mapi
            (fun i r ->
              match row_json r with
              | J.Obj fields -> J.Obj ((label, J.Int i) :: fields)
              | j -> j)
            arr))
  in
  J.Obj
    [
      ("schema", J.Str "xmt.profile.v1");
      ("total_ticks", J.Int rp.rp_total);
      ("buckets", J.List (Array.to_list (Array.map (fun n -> J.Str n) bucket_names)));
      ("master", row_json rp.rp_master);
      ("tcus", rows_of rp.rp_tcus "tcu");
      ("clusters", rows_of rp.rp_clusters "cluster");
      ("aggregate", row_json rp.rp_aggregate);
      ( "attribution",
        J.Obj
          [
            ("has_debug_info", J.Bool rp.rp_has_debug);
            ("nonidle_cycles", J.Int rp.rp_attr.a_nonidle);
            ("attributed_cycles", J.Int rp.rp_attr.a_attributed);
            ("rate", J.Float (attribution_rate rp));
            ( "by_func",
              J.List
                (List.map
                   (fun (fn, c) ->
                     J.Obj [ ("func", J.Str fn); ("cycles", J.Int c) ])
                   rp.rp_attr.a_by_func) );
            ( "by_line",
              J.List
                (List.map
                   (fun lc ->
                     J.Obj
                       [
                         ("func", J.Str lc.lc_fn);
                         ("line", J.Int lc.lc_line);
                         ("cycles", J.Int lc.lc_cycles);
                       ])
                   rp.rp_attr.a_by_line) );
            ( "by_pc",
              J.List
                (List.map
                   (fun (pc, c) ->
                     J.Obj [ ("pc", J.Int pc); ("cycles", J.Int c) ])
                   (List.filteri (fun i _ -> i < 50) rp.rp_attr.a_by_pc)) );
          ] );
    ]

(* ---- text report ---- *)

let pct part whole =
  if whole <= 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let render_stack b ~label (r : row) =
  let total = Array.fold_left ( + ) 0 r.r_buckets + r.r_idle in
  Printf.ksprintf (Buffer.add_string b) "%s (%d cycles):\n" label total;
  let line name v =
    if v > 0 || name = "idle" then
      Printf.ksprintf (Buffer.add_string b) "  %-18s %12d  %5.1f%%\n" name v
        (pct v total)
  in
  Array.iteri (fun i v -> line bucket_names.(i) v) r.r_buckets;
  line "idle" r.r_idle

let render rp =
  let b = Buffer.create 1024 in
  Printf.ksprintf (Buffer.add_string b)
    "CPI stacks over %d TCU-cycles per TCU (%d TCUs + master)\n" rp.rp_total
    (Array.length rp.rp_tcus);
  render_stack b ~label:"aggregate" rp.rp_aggregate;
  render_stack b ~label:"master TCU" rp.rp_master;
  Buffer.add_string b "per-cluster (cycles):\n";
  Printf.ksprintf (Buffer.add_string b) "  %-8s %12s %12s %12s %12s\n" "cluster"
    "compute" "memory" "other" "idle";
  Array.iteri
    (fun i r ->
      let mem = memory r.r_buckets in
      let compute = r.r_buckets.(bucket_index Compute) in
      let other = Array.fold_left ( + ) 0 r.r_buckets - mem - compute in
      Printf.ksprintf (Buffer.add_string b) "  %-8d %12d %12d %12d %12d\n" i
        compute mem other r.r_idle)
    rp.rp_clusters;
  if rp.rp_has_debug then begin
    Printf.ksprintf (Buffer.add_string b)
      "source attribution: %d / %d non-idle cycles (%.1f%%)\n"
      rp.rp_attr.a_attributed rp.rp_attr.a_nonidle
      (100.0 *. attribution_rate rp);
    Buffer.add_string b "hot source lines:\n";
    List.iteri
      (fun i lc ->
        if i < 15 then
          Printf.ksprintf (Buffer.add_string b) "  %12d  %s\n" lc.lc_cycles
            (line_label lc))
      rp.rp_attr.a_by_line
  end
  else
    Buffer.add_string b
      "no debug info in the image (compile with xmtcc -g for source \
       attribution)\n";
  Buffer.contents b

(* Flame-style top-down view: functions sorted by attributed cycles, each
   expanded into its source lines, bar widths proportional to cost. *)
let render_flame rp =
  let b = Buffer.create 1024 in
  let top = rp.rp_attr.a_nonidle in
  if not rp.rp_has_debug then
    Buffer.add_string b "flame view needs debug info (xmtcc -g)\n"
  else begin
    Printf.ksprintf (Buffer.add_string b)
      "flame view (top-down, %d attributed cycles):\n" rp.rp_attr.a_attributed;
    let bar n =
      let width = 32 in
      let w =
        if top <= 0 then 0
        else min width (width * n / max 1 top)
      in
      String.make (max 1 w) '#'
    in
    List.iter
      (fun (fn, c) ->
        Printf.ksprintf (Buffer.add_string b) "%-40s %12d %s\n" fn c (bar c);
        List.iter
          (fun lc ->
            if lc.lc_fn = fn then
              Printf.ksprintf (Buffer.add_string b) "  %-38s %12d %s\n"
                (if lc.lc_line = 0 then "<prologue>"
                 else Printf.sprintf "line %d" lc.lc_line)
                lc.lc_cycles (bar lc.lc_cycles))
          rp.rp_attr.a_by_line)
      rp.rp_attr.a_by_func
  end;
  Buffer.contents b
