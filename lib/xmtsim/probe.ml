(** Passive probes: the one observer interface of the cycle-accurate
    {!Machine} (paper §III-B's filter plug-ins and §III-E's traces).

    A probe is a record of callbacks the machine invokes at fixed points
    of the simulation.  Probes only watch: they never schedule events,
    wake clocks or write machine state, so a run with any set of probes
    attached is bit-identical to a plain run — output, cycles, the full
    {!Stats.t} and even the host event count (checked for every shipped
    probe by the equivalence oracle in [test/test_oracle.ml]).  Probes see
    events, not time: a TCU's wait on memory, a fence or a prefix-sum is
    heard once as it begins and once as it ends, not at every waiting
    tick, so attaching a probe never changes which TCUs the machine
    steps.  Code that runs every N cycles is a periodic hook
    ({!Machine.add_passive_hook}, or {!Machine.add_activity_plugin} for
    the active kind).

    Callbacks take unboxed arguments and values the machine already
    holds, so invoking one allocates nothing; a probe reads simulated
    time through {!Machine.cycles}.  Build a probe by overriding the
    fields of {!nop} it needs; fields left at [nop]'s defaults cost
    nothing once {!combine}d.  TCU ids are global; [-1] means the Master
    TCU (or, on packages, an unattributable line fill). *)

(** Lifecycle stamps of one memory request, in simulated time, written
    by the machine at each station.  Probes only read them, and only
    during the callback: the machine reuses the record for a later
    request. *)
type lifecycle = {
  mutable l_born : int;  (** enqueued into the cluster outbox *)
  mutable l_icn_wait : int;  (** merge-contention delay in the ICN *)
  mutable l_arrive : int;  (** entered the cache module's input queue *)
  mutable l_svc : int;  (** reply handed to the return ICN *)
  mutable l_mod : int;  (** destination cache module *)
  mutable l_hit : bool;
}

(** Why a TCU spends ticks without issuing. *)
type wait =
  | Fu  (** multi-cycle FU latency; for the master, any post-issue stall *)
  | Mem  (** blocked on a memory reply; ends at [woken] *)
  | Ps  (** prefix-sum in flight; ends at [sync] *)
  | Fence  (** draining non-blocking stores; ends at [release] *)

type t = {
  name : string;
  issue : tcu:int -> pc:int -> Isa.Instr.t -> addr:int -> unit;
      (** an instruction issued; [addr] is the memory address it
          touches, or -1 *)
  stall : tcu:int -> pc:int -> unit;  (** shared FU busy: retry next tick *)
  wait : tcu:int -> wait -> unit;
      (** [Fu]: one tick spent in FU latency.  [Mem], [Ps], [Fence]: a
          wait begins, heard once, in the TCU's turn of its first waiting
          tick; a wait that ends before that tick is not heard, and a
          probe attached mid-spawn may miss the waits already entered *)
  read : tcu:int -> pc:int -> addr:int -> unit;
      (** shared-memory read performed (service time) *)
  write : tcu:int -> pc:int -> addr:int -> unit;
  sync : tcu:int -> unit;  (** [ps]/[psm] completed: acquire + release *)
  release : tcu:int -> unit;  (** fence completed: stores drained *)
  package :
    stage:string -> kind:string -> addr:int -> tcu:int -> pc:int -> module_:int -> unit;
      (** a package reached a station ("icn-inject", "module-arrive",
          "cache-hit"/"cache-miss", "dram-fill", "reply"); [module_] is
          -1 for reply deliveries *)
  reply : kind:string -> tcu:int -> addr:int -> lifecycle -> unit;
      (** a reply was delivered to its cluster *)
  woken : tcu:int -> pref:bool -> lifecycle -> unit;
      (** that reply ended the TCU's memory wait ([pref]: a prefetch fill) *)
  spawn : lo:int -> hi:int -> unit;  (** spawn broadcast done, TCUs start *)
  join : pc:int -> unit;  (** join complete: the master resumes after [pc] *)
  tcu_done : tcu:int -> unit;  (** the TCU ran out of virtual threads *)
  master_mem : waited:int -> unit;
      (** a master cache-miss load returned after [waited] time units *)
  run_end : halted:bool -> unit;  (** a {!Machine.run} returned *)
}

let nop =
  {
    name = "nop";
    issue = (fun ~tcu:_ ~pc:_ _ ~addr:_ -> ());
    stall = (fun ~tcu:_ ~pc:_ -> ());
    wait = (fun ~tcu:_ _ -> ());
    read = (fun ~tcu:_ ~pc:_ ~addr:_ -> ());
    write = (fun ~tcu:_ ~pc:_ ~addr:_ -> ());
    sync = (fun ~tcu:_ -> ());
    release = (fun ~tcu:_ -> ());
    package = (fun ~stage:_ ~kind:_ ~addr:_ ~tcu:_ ~pc:_ ~module_:_ -> ());
    reply = (fun ~kind:_ ~tcu:_ ~addr:_ _ -> ());
    woken = (fun ~tcu:_ ~pref:_ _ -> ());
    spawn = (fun ~lo:_ ~hi:_ -> ());
    join = (fun ~pc:_ -> ());
    tcu_done = (fun ~tcu:_ -> ());
    master_mem = (fun ~waited:_ -> ());
    run_end = (fun ~halted:_ -> ());
  }

(* [both d x y xy]: one callback doing [x] then [y], where a side still
   at the default [d] drops out ([xy] is used only when neither does). *)
let both d x y xy = if x == d then y else if y == d then x else xy

(* [a]'s callbacks, then [b]'s *)
let pair a b =
  let n = nop in
  {
    name = a.name ^ "+" ^ b.name;
    issue =
      both n.issue a.issue b.issue (fun ~tcu ~pc i ~addr ->
          a.issue ~tcu ~pc i ~addr;
          b.issue ~tcu ~pc i ~addr);
    stall = both n.stall a.stall b.stall (fun ~tcu ~pc -> a.stall ~tcu ~pc; b.stall ~tcu ~pc);
    wait = both n.wait a.wait b.wait (fun ~tcu w -> a.wait ~tcu w; b.wait ~tcu w);
    read =
      both n.read a.read b.read (fun ~tcu ~pc ~addr ->
          a.read ~tcu ~pc ~addr;
          b.read ~tcu ~pc ~addr);
    write =
      both n.write a.write b.write (fun ~tcu ~pc ~addr ->
          a.write ~tcu ~pc ~addr;
          b.write ~tcu ~pc ~addr);
    sync = both n.sync a.sync b.sync (fun ~tcu -> a.sync ~tcu; b.sync ~tcu);
    release = both n.release a.release b.release (fun ~tcu -> a.release ~tcu; b.release ~tcu);
    package =
      both n.package a.package b.package (fun ~stage ~kind ~addr ~tcu ~pc ~module_ ->
          a.package ~stage ~kind ~addr ~tcu ~pc ~module_;
          b.package ~stage ~kind ~addr ~tcu ~pc ~module_);
    reply =
      both n.reply a.reply b.reply (fun ~kind ~tcu ~addr lc ->
          a.reply ~kind ~tcu ~addr lc;
          b.reply ~kind ~tcu ~addr lc);
    woken =
      both n.woken a.woken b.woken (fun ~tcu ~pref lc ->
          a.woken ~tcu ~pref lc;
          b.woken ~tcu ~pref lc);
    spawn = both n.spawn a.spawn b.spawn (fun ~lo ~hi -> a.spawn ~lo ~hi; b.spawn ~lo ~hi);
    join = both n.join a.join b.join (fun ~pc -> a.join ~pc; b.join ~pc);
    tcu_done = both n.tcu_done a.tcu_done b.tcu_done (fun ~tcu -> a.tcu_done ~tcu; b.tcu_done ~tcu);
    master_mem =
      both n.master_mem a.master_mem b.master_mem (fun ~waited ->
          a.master_mem ~waited;
          b.master_mem ~waited);
    run_end =
      both n.run_end a.run_end b.run_end (fun ~halted -> a.run_end ~halted; b.run_end ~halted);
  }

(** One probe forwarding every event to [ps], in list order.  Per event
    only the probes that override it are called; forwarding allocates
    nothing. *)
let combine = function [] -> nop | p :: ps -> List.fold_left pair p ps
