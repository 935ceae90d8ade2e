(** Simulated XMT configuration (paper §III: "XMTSim is highly configurable
    and provides control over many parameters including number of TCUs, the
    cache size, DRAM bandwidth and relative clock frequencies").

    All latencies are in cycles of the respective component's clock domain;
    all clock domains default to period 1 (same frequency). *)

type prefetch_policy = Fifo | Lru

type t = {
  name : string;
  (* topology *)
  num_clusters : int;
  tcus_per_cluster : int;
  (* per-cluster shared functional units *)
  mdus_per_cluster : int;
  fpus_per_cluster : int;
  mul_latency : int;
  div_latency : int;
  fpu_latency : int;
  sqrt_latency : int;
  (* TCU prefetch buffers *)
  prefetch_buffer_size : int;  (** 0 disables prefetch buffering *)
  prefetch_policy : prefetch_policy;
  (* cluster read-only cache *)
  rocache_lines : int;
  rocache_hit_latency : int;
  (* interconnection network *)
  icn_latency : int;  (** one-way traversal latency (hops) *)
  icn_jitter : int;  (** max extra cycles of seeded arbitration jitter *)
  cluster_inject_width : int;  (** packets a cluster may inject per cycle *)
  cluster_return_width : int;  (** replies a cluster may accept per cycle *)
  (* shared L1 cache modules *)
  num_cache_modules : int;
  cache_lines : int;  (** lines per module *)
  cache_assoc : int;
  cache_line_words : int;
  cache_hit_latency : int;
  cache_ports : int;  (** requests a module accepts per cycle *)
  (* DRAM *)
  dram_latency : int;
  dram_bandwidth : int;  (** requests serviced per cycle, all channels *)
  (* master TCU *)
  master_cache_lines : int;
  master_cache_hit_latency : int;
  (* prefix-sum unit *)
  ps_latency : int;
  (* spawn/join *)
  spawn_overhead : int;  (** broadcast + TCU activation cycles *)
  join_overhead : int;
  (* clock domain periods (DVFS initial values) *)
  cluster_period : int;
  icn_period : int;
  cache_period : int;
  dram_period : int;
  (* misc *)
  seed : int;  (** arbitration jitter seed *)
  max_cycles : int;  (** simulation safety stop *)
}

let num_tcus c = c.num_clusters * c.tcus_per_cluster

(** The 64-TCU FPGA prototype configuration (paper §II, [13,14]): 8
    clusters of 8 TCUs, 8 shared cache modules. *)
let fpga64 =
  {
    name = "fpga64";
    num_clusters = 8;
    tcus_per_cluster = 8;
    mdus_per_cluster = 1;
    fpus_per_cluster = 1;
    mul_latency = 4;
    div_latency = 12;
    fpu_latency = 6;
    sqrt_latency = 16;
    prefetch_buffer_size = 4;
    prefetch_policy = Fifo;
    rocache_lines = 64;
    rocache_hit_latency = 1;
    icn_latency = 6;
    icn_jitter = 2;
    cluster_inject_width = 1;
    cluster_return_width = 2;
    num_cache_modules = 8;
    cache_lines = 256;
    cache_assoc = 2;
    cache_line_words = 4;
    cache_hit_latency = 2;
    cache_ports = 1;
    dram_latency = 60;
    dram_bandwidth = 1;
    master_cache_lines = 256;
    master_cache_hit_latency = 1;
    ps_latency = 4;
    spawn_overhead = 12;
    join_overhead = 6;
    cluster_period = 1;
    icn_period = 1;
    cache_period = 1;
    dram_period = 1;
    seed = 42;
    max_cycles = 1_000_000_000;
  }

(** The envisioned 1024-TCU XMT chip (paper §III-A): 64 clusters of 16
    TCUs; shared L1 ~30 cycles away (§IV-C). *)
let chip1024 =
  {
    fpga64 with
    name = "chip1024";
    num_clusters = 64;
    tcus_per_cluster = 16;
    mdus_per_cluster = 2;
    fpus_per_cluster = 2;
    num_cache_modules = 64;
    cache_lines = 512;
    icn_latency = 12;
    dram_latency = 100;
    dram_bandwidth = 4;
    ps_latency = 6;
    spawn_overhead = 20;
    join_overhead = 10;
  }

(** Tiny configuration for unit tests: 2 clusters of 2 TCUs. *)
let tiny =
  {
    fpga64 with
    name = "tiny";
    num_clusters = 2;
    tcus_per_cluster = 2;
    num_cache_modules = 2;
    icn_latency = 3;
    dram_latency = 20;
    spawn_overhead = 4;
    join_overhead = 2;
  }

let presets = [ ("fpga64", fpga64); ("chip1024", chip1024); ("tiny", tiny) ]

exception Bad_config of string

(** Parse "key=value" overrides, e.g. ["tcus_per_cluster=4"]. *)
let with_override (c : t) key value =
  let iv () =
    match int_of_string_opt value with
    | Some v -> v
    | None -> raise (Bad_config (Printf.sprintf "%s: expected integer, got %S" key value))
  in
  match key with
  | "num_clusters" -> { c with num_clusters = iv () }
  | "tcus_per_cluster" -> { c with tcus_per_cluster = iv () }
  | "mdus_per_cluster" -> { c with mdus_per_cluster = iv () }
  | "fpus_per_cluster" -> { c with fpus_per_cluster = iv () }
  | "mul_latency" -> { c with mul_latency = iv () }
  | "div_latency" -> { c with div_latency = iv () }
  | "fpu_latency" -> { c with fpu_latency = iv () }
  | "sqrt_latency" -> { c with sqrt_latency = iv () }
  | "prefetch_buffer_size" -> { c with prefetch_buffer_size = iv () }
  | "prefetch_policy" -> (
    match value with
    | "fifo" -> { c with prefetch_policy = Fifo }
    | "lru" -> { c with prefetch_policy = Lru }
    | _ -> raise (Bad_config "prefetch_policy: fifo|lru"))
  | "rocache_lines" -> { c with rocache_lines = iv () }
  | "icn_latency" -> { c with icn_latency = iv () }
  | "icn_jitter" -> { c with icn_jitter = iv () }
  | "cluster_inject_width" -> { c with cluster_inject_width = iv () }
  | "cluster_return_width" -> { c with cluster_return_width = iv () }
  | "num_cache_modules" -> { c with num_cache_modules = iv () }
  | "cache_lines" -> { c with cache_lines = iv () }
  | "cache_assoc" -> { c with cache_assoc = iv () }
  | "cache_line_words" -> { c with cache_line_words = iv () }
  | "cache_hit_latency" -> { c with cache_hit_latency = iv () }
  | "cache_ports" -> { c with cache_ports = iv () }
  | "dram_latency" -> { c with dram_latency = iv () }
  | "dram_bandwidth" -> { c with dram_bandwidth = iv () }
  | "master_cache_lines" -> { c with master_cache_lines = iv () }
  | "ps_latency" -> { c with ps_latency = iv () }
  | "spawn_overhead" -> { c with spawn_overhead = iv () }
  | "join_overhead" -> { c with join_overhead = iv () }
  | "cluster_period" -> { c with cluster_period = iv () }
  | "icn_period" -> { c with icn_period = iv () }
  | "cache_period" -> { c with cache_period = iv () }
  | "dram_period" -> { c with dram_period = iv () }
  | "seed" -> { c with seed = iv () }
  | "max_cycles" -> { c with max_cycles = iv () }
  | other -> raise (Bad_config ("unknown configuration key " ^ other))

(* ------------------------------------------------------------------ *)
(* Validation: reject machines the simulator cannot build or that would
   crash mid-run (zero-sized topologies, zero-way caches, stopped
   clocks).  Sweep generators go through {!checked} or
   {!with_overrides}, so a bad point fails at construction, before any
   campaign job is spawned. *)

let validate c =
  let problems = ref [] in
  let need ok msg = if not ok then problems := msg :: !problems in
  let pos name v = need (v >= 1) (name ^ " must be >= 1") in
  let nonneg name v = need (v >= 0) (name ^ " must be >= 0") in
  pos "num_clusters" c.num_clusters;
  pos "tcus_per_cluster" c.tcus_per_cluster;
  pos "mdus_per_cluster" c.mdus_per_cluster;
  pos "fpus_per_cluster" c.fpus_per_cluster;
  pos "mul_latency" c.mul_latency;
  pos "div_latency" c.div_latency;
  pos "fpu_latency" c.fpu_latency;
  pos "sqrt_latency" c.sqrt_latency;
  nonneg "prefetch_buffer_size" c.prefetch_buffer_size;
  pos "rocache_lines" c.rocache_lines;
  pos "rocache_hit_latency" c.rocache_hit_latency;
  pos "icn_latency" c.icn_latency;
  nonneg "icn_jitter" c.icn_jitter;
  pos "cluster_inject_width" c.cluster_inject_width;
  pos "cluster_return_width" c.cluster_return_width;
  pos "num_cache_modules" c.num_cache_modules;
  pos "cache_lines" c.cache_lines;
  pos "cache_assoc" c.cache_assoc;
  pos "cache_line_words" c.cache_line_words;
  pos "cache_hit_latency" c.cache_hit_latency;
  pos "cache_ports" c.cache_ports;
  pos "dram_latency" c.dram_latency;
  pos "dram_bandwidth" c.dram_bandwidth;
  pos "master_cache_lines" c.master_cache_lines;
  pos "master_cache_hit_latency" c.master_cache_hit_latency;
  pos "ps_latency" c.ps_latency;
  nonneg "spawn_overhead" c.spawn_overhead;
  nonneg "join_overhead" c.join_overhead;
  pos "cluster_period" c.cluster_period;
  pos "icn_period" c.icn_period;
  pos "cache_period" c.cache_period;
  pos "dram_period" c.dram_period;
  pos "max_cycles" c.max_cycles;
  match List.rev !problems with
  | [] -> Ok c
  | ps -> Error (Printf.sprintf "config %s: %s" c.name (String.concat "; " ps))

let checked c =
  match validate c with Ok c -> c | Error msg -> raise (Bad_config msg)

(** Apply a list of "key=value" strings; the final configuration is
    validated, so a sweep generator cannot emit a crashing machine. *)
let with_overrides c kvs =
  checked
    (List.fold_left
       (fun c kv ->
         match String.index_opt kv '=' with
         | Some i ->
           with_override c (String.sub kv 0 i)
             (String.sub kv (i + 1) (String.length kv - i - 1))
         | None -> raise (Bad_config ("expected key=value, got " ^ kv)))
       c kvs)
