(** Simulated XMT configuration (paper §III: "XMTSim is highly
    configurable and provides control over many parameters including
    number of TCUs, the cache size, DRAM bandwidth and relative clock
    frequencies").

    The record is transparent — every knob is a plain field — but the
    construction surface is validated: {!checked} (for a record built
    as [{ base with ... }]) and {!with_overrides} both reject machines
    the simulator cannot build (zero clusters/TCUs, zero-way caches,
    non-positive latencies or clock periods), so sweep generators cannot
    emit a configuration that crashes mid-campaign.

    All latencies are in cycles of the respective component's clock
    domain; all clock domains default to period 1 (same frequency). *)

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

val num_tcus : t -> int

(** The 64-TCU FPGA prototype (paper §II): 8 clusters of 8 TCUs. *)
val fpga64 : t

(** The envisioned 1024-TCU XMT chip (paper §III-A): 64 clusters of 16
    TCUs. *)
val chip1024 : t

(** Tiny configuration for unit tests: 2 clusters of 2 TCUs. *)
val tiny : t

val presets : (string * t) list

exception Bad_config of string

(** Check a configuration for inconsistencies; [Error] lists every
    violated constraint. *)
val validate : t -> (t, string) result

(** [validate], raising {!Bad_config} on inconsistency. *)
val checked : t -> t

(** Apply a list of "key=value" override strings (the CLI's [--set]);
    the final configuration is validated.  Raises {!Bad_config} on
    unknown keys, malformed values or inconsistent results. *)
val with_overrides : t -> string list -> t
