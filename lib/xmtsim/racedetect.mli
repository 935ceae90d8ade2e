(** Dynamic shadow-memory race detector.

    Records per-address last-writer / latest-read-per-TCU origins and
    per-TCU acquire/release sequences ([ps]/[psm] completions acquire and
    release; fence completions release).  Two same-address accesses from
    different TCUs, at least one a write, are a race unless separated by
    a release of the earlier TCU followed by an acquire of the later TCU
    before its access (the Fig. 7 publication discipline).

    Attach with {!attach}; a machine without a detector pays no
    overhead.  Reports are deterministic: simulated
    quantities only, sorted and deduplicated on
    (address, kind, pc, pc). *)

type t

type race = {
  r_addr : int;
  r_kind : string;  (** ["write-write"] or ["read-write"] *)
  r_epoch : int;  (** spawn epoch (1-based) the race was detected in *)
  r_tcu_a : int;
  r_pc_a : int;  (** earlier access *)
  r_tcu_b : int;
  r_pc_b : int;  (** later access *)
  r_time : int;  (** simulated time of first detection *)
  mutable r_count : int;  (** occurrences of this (addr, kind, pcs) pair *)
}

val create : unit -> t

(** The detector as a passive probe on machine [m]: every shared-memory
    access at service time (load, prefetch, store, with (address, tcu,
    pc)), acquire/release at [ps]/[psm] and fence completions, and a new
    epoch per spawn. *)
val probe : Machine.t -> t -> Probe.t

(** A fresh detector, attached to the machine. *)
val attach : Machine.t -> t

(** Detected races, sorted on (address, kind, pc_a, pc_b). *)
val races : t -> race list

val race_count : t -> int

(** Accesses observed. *)
val events : t -> int

val epochs : t -> int

(** The [dynamic] member of an [xmt.races.v1] report:
    [{races, epochs, events}]. *)
val to_json : t -> Obs.Json.t
