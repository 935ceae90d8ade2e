(* Reuse-profile harvest for the analytical prediction mode — see
   reuseprofile.mli.  The collector is fed by the functional
   interpreter ({!Functional_mode} with [?profile]): every executed
   instruction, every memory access (with its address) and every
   spawn/join/thread boundary passes through the hooks below. *)

module I = Isa.Instr

(* ---------------- bounded LRU stack-distance tracker ---------------- *)

(* One tracker per (stream, line granularity): a move-to-front list over
   line ids with a hash index.  Recency updates are O(1); measuring a
   stack distance walks the list to the hit position (cheap under
   temporal locality), so only every [sample_period]-th eligible reuse
   is measured — the rest still update recency, keeping measured
   distances exact.  Capacity is bounded at [depth] lines: colder reuses
   land in the [beyond] bucket.  Memory is O(depth).

   Concurrency-aware classification: the functional interpreter runs
   virtual threads sequentially, but on the real machine threads run
   [num_tcus] at a time, so a line touched by several "adjacent" threads
   is fetched once and *waited on by all of them* (they park in the
   cache module's MSHR while the fill is in flight) — those are not
   hits.  Each access therefore carries a virtual-TCU id; a reuse by a
   *different* vTCU within [window] accesses of the line's (re)fill is
   counted as a {e co-miss}: it pays miss latency but shares the fill.
   Same-vTCU reuses are always eligible (a TCU's loads block, so its own
   reuses are sequential by construction), as are reuses of lines older
   than the fill window (the line is resident by then). *)

type node = {
  mutable line : int;
  mutable prev : node;  (* towards MRU *)
  mutable next : node;  (* towards LRU *)
  mutable fill_at : int;  (* stream clock at the line's (re)install *)
  mutable last_vtcu : int;
}

type stack = {
  gran_words : int;  (* line granularity in words *)
  depth : int;
  sample_period : int;
  window : int;  (* co-miss window, in accesses since the line's fill *)
  line_sampling : int;
      (* spatial sampling rate (power of two): only lines whose hash
         lands in the 1/rate sample set are tracked, and measured
         distances are scaled back by the rate (SHARDS-style).  Counts
         are unbiased in ratio; memory and time shrink by the rate. *)
  buckets : int array;
      (* buckets.(0) counts distance 1; buckets.(i) distances in
         (2^(i-1), 2^i] *)
  mutable beyond : int;  (* measured reuses past [depth] *)
  mutable sampled : int;  (* eligible reuses measured *)
  mutable accesses : int;  (* tracked (sampled-line) accesses *)
  mutable clock : int;  (* all stream accesses, incl. unsampled lines *)
  mutable first_touch : int;  (* exact over tracked lines *)
  mutable comiss : int;  (* exact: cross-vTCU reuses inside the window *)
  mutable countdown : int;  (* eligible reuses until the next measured *)
  mutable size : int;
  sentinel : node;
  tbl : (int, node) Hashtbl.t;
}

let log2_ceil n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let make_stack ~gran_words ~depth ~sample_period ~window ~line_sampling =
  let rec sentinel =
    { line = min_int; prev = sentinel; next = sentinel; fill_at = 0; last_vtcu = -1 }
  in
  {
    gran_words;
    depth;
    sample_period;
    window;
    line_sampling;
    buckets = Array.make (log2_ceil depth + 1) 0;
    beyond = 0;
    sampled = 0;
    accesses = 0;
    clock = 0;
    first_touch = 0;
    comiss = 0;
    countdown = 0;
    size = 0;
    sentinel;
    tbl = Hashtbl.create 1024;
  }

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front st n =
  n.next <- st.sentinel.next;
  n.prev <- st.sentinel;
  st.sentinel.next.prev <- n;
  st.sentinel.next <- n

(* position of [target] in the list, 1-based from the MRU end *)
let stack_position st target =
  let rec go n d = if n == target then d else go n.next (d + 1) in
  go st.sentinel.next 1

let record_distance st d =
  if d <= st.depth then begin
    let b = if d <= 1 then 0 else log2_ceil d in
    st.buckets.(b) <- st.buckets.(b) + 1
  end
  else st.beyond <- st.beyond + 1

(* Fibonacci-style multiplicative line hash; the high bits decide
   sample-set membership so sequential line ids scatter uniformly. *)
let in_sample st line =
  st.line_sampling = 1
  || (line * 0x9E3779B97F4A7C1) lsr 40 land (st.line_sampling - 1) = 0

let stack_access st ~word ~vtcu =
  let line = word / st.gran_words in
  st.clock <- st.clock + 1;
  if in_sample st line then begin
    st.accesses <- st.accesses + 1;
    match Hashtbl.find_opt st.tbl line with
    | Some n ->
      if n.last_vtcu <> vtcu && st.clock - n.fill_at <= st.window then
        (* a concurrent sibling's access: waits on the in-flight fill *)
        st.comiss <- st.comiss + 1
      else begin
        (* eligible reuse: sampled stack-distance measurement, scaled
           back from the sampled line space to the full one *)
        if st.countdown = 0 then begin
          st.countdown <- st.sample_period - 1;
          st.sampled <- st.sampled + 1;
          record_distance st (stack_position st n * st.line_sampling)
        end
        else st.countdown <- st.countdown - 1
      end;
      n.last_vtcu <- vtcu;
      unlink n;
      push_front st n
    | None ->
      st.first_touch <- st.first_touch + 1;
      if st.size * st.line_sampling >= st.depth then begin
        (* evict the LRU line; reuse its node *)
        let lru = st.sentinel.prev in
        Hashtbl.remove st.tbl lru.line;
        unlink lru;
        lru.line <- line;
        lru.fill_at <- st.clock;
        lru.last_vtcu <- vtcu;
        Hashtbl.replace st.tbl line lru;
        push_front st lru
      end
      else begin
        let rec n =
          { line; prev = n; next = n; fill_at = st.clock; last_vtcu = vtcu }
        in
        Hashtbl.replace st.tbl line n;
        push_front st n;
        st.size <- st.size + 1
      end
  end

(* ---------------- per-spawn-block instruction mixes ---------------- *)

let classes = Array.of_list I.all_fu_classes
let nclasses = Array.length classes

(* branch-free index into [classes] (declaration order matches
   [all_fu_classes]); this sits on the per-instruction hot path *)
let class_index = function
  | I.FU_ALU -> 0
  | I.FU_BR -> 1
  | I.FU_SFT -> 2
  | I.FU_MDU -> 3
  | I.FU_FPU -> 4
  | I.FU_MEM -> 5
  | I.FU_PS -> 6
  | I.FU_CTRL -> 7

type block = {
  b_pc : int;  (* spawn instruction index; -1 = the serial (master) block *)
  mutable b_activations : int;
  mutable b_threads : int;
  mutable b_instructions : int;
  b_mix : int array;  (* indexed like Isa.Instr.all_fu_classes *)
  mutable b_muls : int;  (* MDU ops that are multiplies (rest divide) *)
  mutable b_fpu_divs : int;  (* FPU ops that are fdiv/fsqrt *)
  mutable b_loads : int;
  mutable b_ro_loads : int;
  mutable b_stores : int;
  mutable b_nb_stores : int;
  mutable b_psm : int;
  mutable b_prefetch : int;
  mutable b_fences : int;
}

let make_block pc =
  {
    b_pc = pc;
    b_activations = 0;
    b_threads = 0;
    b_instructions = 0;
    b_mix = Array.make nclasses 0;
    b_muls = 0;
    b_fpu_divs = 0;
    b_loads = 0;
    b_ro_loads = 0;
    b_stores = 0;
    b_nb_stores = 0;
    b_psm = 0;
    b_prefetch = 0;
    b_fences = 0;
  }

(* ---------------- the collector ---------------- *)

type t = {
  blocks : (int, block) Hashtbl.t;
  mutable current : block;  (* the serial block outside spawns *)
  serial : block;
  mutable instructions : int;
  mutable master_instructions : int;
  mutable spawns : int;
  mutable accesses : int;
  sample_period : int;
  stack_depth : int;
  streams : int;  (* virtual TCUs threads are dealt onto *)
  mutable vtcu : int;  (* stream of the currently-running thread *)
  mutable thread_seq : int;  (* activation counter inside the open spawn *)
  (* stacks.(s).(g): stream class s at granularity g *)
  stream_names : string array;
  stacks : stack array array;
}

let default_granularities = [ 1; 4 ]
let default_depth = 16384
let default_sample_period = 8
let default_streams = 64
let default_line_sampling = 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?(granularities = default_granularities) ?(depth = default_depth)
    ?(sample_period = default_sample_period) ?(streams = default_streams)
    ?window ?(line_sampling = default_line_sampling) () =
  if granularities = [] then invalid_arg "Reuseprofile.create: no granularities";
  List.iter
    (fun g ->
      if g < 1 then invalid_arg "Reuseprofile.create: granularity < 1 word")
    granularities;
  if depth < 2 then invalid_arg "Reuseprofile.create: depth < 2";
  if sample_period < 1 then invalid_arg "Reuseprofile.create: sample_period < 1";
  if streams < 1 then invalid_arg "Reuseprofile.create: streams < 1";
  if not (is_pow2 line_sampling) then
    invalid_arg "Reuseprofile.create: line_sampling must be a power of two";
  let window = Option.value window ~default:streams in
  if window < 0 then invalid_arg "Reuseprofile.create: window < 0";
  let serial = make_block (-1) in
  serial.b_activations <- 1;
  let blocks = Hashtbl.create 16 in
  Hashtbl.replace blocks (-1) serial;
  let stream_names = [| "tcu_rw"; "tcu_ro"; "master" |] in
  {
    blocks;
    current = serial;
    serial;
    instructions = 0;
    master_instructions = 0;
    spawns = 0;
    accesses = 0;
    sample_period;
    stack_depth = depth;
    streams;
    vtcu = 0;
    thread_seq = 0;
    stream_names;
    stacks =
      Array.map
        (fun _ ->
          Array.of_list
            (List.map
               (fun gran_words ->
                 make_stack ~gran_words ~depth ~sample_period ~window
                   ~line_sampling)
               granularities))
        stream_names;
  }

let on_instrs t ~master ins n =
  t.instructions <- t.instructions + n;
  if master then t.master_instructions <- t.master_instructions + n;
  let b = t.current in
  b.b_instructions <- b.b_instructions + n;
  let i = class_index (I.fu_class_of ins) in
  b.b_mix.(i) <- b.b_mix.(i) + n;
  match ins with
  | I.Mdu (I.Mul, _, _, _) -> b.b_muls <- b.b_muls + n
  | I.Fpu (I.Fdiv, _, _, _) | I.Fpu1 (I.Fsqrt, _, _) ->
    b.b_fpu_divs <- b.b_fpu_divs + n
  | _ -> ()

let s_rw = 0
let s_ro = 1
let s_master = 2

let on_access t ~master ~ro ~nb ~kind ~addr =
  let b = t.current in
  let stream =
    match kind with
    | `Load ->
      b.b_loads <- b.b_loads + 1;
      if ro then b.b_ro_loads <- b.b_ro_loads + 1;
      if master then s_master else if ro then s_ro else s_rw
    | `Store ->
      b.b_stores <- b.b_stores + 1;
      if nb then b.b_nb_stores <- b.b_nb_stores + 1;
      if master then s_master else s_rw
    | `Psm ->
      b.b_psm <- b.b_psm + 1;
      if master then s_master else s_rw
    | `Prefetch ->
      b.b_prefetch <- b.b_prefetch + 1;
      if master then s_master else if ro then s_ro else s_rw
  in
  t.accesses <- t.accesses + 1;
  let word = addr asr 2 in
  let vtcu = if master then -1 else t.vtcu in
  Array.iter (fun st -> stack_access st ~word ~vtcu) t.stacks.(stream)

let on_thread t =
  t.vtcu <- t.thread_seq mod t.streams;
  t.thread_seq <- t.thread_seq + 1

let on_fence t = t.current.b_fences <- t.current.b_fences + 1

let enter_spawn t ~pc ~threads =
  t.spawns <- t.spawns + 1;
  let b =
    match Hashtbl.find_opt t.blocks pc with
    | Some b -> b
    | None ->
      let b = make_block pc in
      Hashtbl.replace t.blocks pc b;
      b
  in
  b.b_activations <- b.b_activations + 1;
  b.b_threads <- b.b_threads + threads;
  t.thread_seq <- 0;
  t.vtcu <- 0;
  t.current <- b

let exit_spawn t =
  t.current <- t.serial;
  t.vtcu <- 0

(* ---------------- the immutable snapshot ---------------- *)

type histogram = {
  h_granularity_words : int;
  h_depth : int;
  h_window : int;
  h_line_sampling : int;
  h_accesses : int;
  h_first_touch : int;
  h_comiss : int;
  h_sampled : int;
  h_beyond : int;
  h_buckets : int array;
}

type block_info = {
  pc : int;
  activations : int;
  threads : int;
  instructions : int;
  mix : (string * int) list;
  muls : int;
  fpu_divs : int;
  loads : int;
  ro_loads : int;
  stores : int;
  nb_stores : int;
  psm : int;
  prefetch : int;
  fences : int;
}

type snapshot = {
  p_instructions : int;
  p_master_instructions : int;
  p_spawns : int;
  p_accesses : int;
  p_sample_period : int;
  p_streams_dealt : int;
  p_blocks : block_info list;  (* serial block first, then by spawn pc *)
  p_streams : (string * histogram list) list;
}

let snapshot t =
  let block_info (b : block) =
    {
      pc = b.b_pc;
      activations = b.b_activations;
      threads = b.b_threads;
      instructions = b.b_instructions;
      mix =
        List.filteri
          (fun i _ -> b.b_mix.(i) > 0)
          (Array.to_list
             (Array.mapi
                (fun i c -> (I.fu_class_name c, b.b_mix.(i)))
                classes));
      muls = b.b_muls;
      fpu_divs = b.b_fpu_divs;
      loads = b.b_loads;
      ro_loads = b.b_ro_loads;
      stores = b.b_stores;
      nb_stores = b.b_nb_stores;
      psm = b.b_psm;
      prefetch = b.b_prefetch;
      fences = b.b_fences;
    }
  in
  let blocks =
    Hashtbl.fold (fun _ b acc -> b :: acc) t.blocks []
    |> List.sort (fun a b -> compare a.b_pc b.b_pc)
    |> List.map block_info
  in
  let hist (st : stack) =
    {
      h_granularity_words = st.gran_words;
      h_depth = st.depth;
      h_window = st.window;
      h_line_sampling = st.line_sampling;
      h_accesses = st.accesses;
      h_first_touch = st.first_touch;
      h_comiss = st.comiss;
      h_sampled = st.sampled;
      h_beyond = st.beyond;
      h_buckets = Array.copy st.buckets;
    }
  in
  {
    p_instructions = t.instructions;
    p_master_instructions = t.master_instructions;
    p_spawns = t.spawns;
    p_accesses = t.accesses;
    p_sample_period = t.sample_period;
    p_streams_dealt = t.streams;
    p_blocks = blocks;
    p_streams =
      Array.to_list
        (Array.mapi
           (fun s name -> (name, List.map hist (Array.to_list t.stacks.(s))))
           t.stream_names);
  }

(* ---------------- xmt.reuseprofile.v1 ---------------- *)

module J = Obs.Json

let to_json (p : snapshot) =
  let block_json b =
    J.Obj
      [
        ("pc", J.Int b.pc);
        ("activations", J.Int b.activations);
        ("threads", J.Int b.threads);
        ("instructions", J.Int b.instructions);
        ("mix", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) b.mix));
        ("muls", J.Int b.muls);
        ("fpu_divs", J.Int b.fpu_divs);
        ("loads", J.Int b.loads);
        ("ro_loads", J.Int b.ro_loads);
        ("stores", J.Int b.stores);
        ("nb_stores", J.Int b.nb_stores);
        ("psm", J.Int b.psm);
        ("prefetch", J.Int b.prefetch);
        ("fences", J.Int b.fences);
      ]
  in
  let hist_json h =
    J.Obj
      [
        ("granularity_words", J.Int h.h_granularity_words);
        ("depth", J.Int h.h_depth);
        ("window", J.Int h.h_window);
        ("line_sampling", J.Int h.h_line_sampling);
        ("accesses", J.Int h.h_accesses);
        ("first_touch", J.Int h.h_first_touch);
        ("comiss", J.Int h.h_comiss);
        ("sampled", J.Int h.h_sampled);
        ("beyond", J.Int h.h_beyond);
        ( "buckets",
          J.List (Array.to_list (Array.map (fun n -> J.Int n) h.h_buckets)) );
      ]
  in
  J.Obj
    [
      ("schema", J.Str "xmt.reuseprofile.v1");
      ("instructions", J.Int p.p_instructions);
      ("master_instructions", J.Int p.p_master_instructions);
      ("spawns", J.Int p.p_spawns);
      ("accesses", J.Int p.p_accesses);
      ("sample_period", J.Int p.p_sample_period);
      ("streams_dealt", J.Int p.p_streams_dealt);
      ("blocks", J.List (List.map block_json p.p_blocks));
      ( "streams",
        J.List
          (List.map
             (fun (name, hists) ->
               J.Obj
                 [
                   ("stream", J.Str name);
                   ("histograms", J.List (List.map hist_json hists));
                 ])
             p.p_streams) );
    ]
