(** Dynamic shadow-memory race detector (the checker's second layer).

    Attached to a {!Machine}, it observes every shared-memory access at
    its {e service} time (the cycle the cache module performs the
    functional effect — the point that defines the XMT memory model's
    outcome) and every synchronization event:

    - [ps]/[psm] completion: an {e acquire} and a {e release} for the
      issuing TCU (prefix-sums are the model's ordering primitive);
    - fence completion (pending non-blocking stores drained): a
      {e release}.

    Per address it keeps the last writer and the latest read per TCU.
    Two accesses to the same address from different TCUs, at least one a
    write, form a race unless {e separated}: the earlier access's TCU
    released after it, and the later access's TCU acquired between that
    release and its access.  This is the Fig. 7 publication discipline —
    store, fence, [psm] the flag; consumer [psm]s the flag, then reads.
    Unordered same-epoch accesses that happen to land in the benign
    order are still flagged only when genuinely unseparated, so a
    fence-less compile is reported exactly when the hardware could (and
    in the observed schedule did or could have) exposed the reorder.

    Races are deduplicated on (address, kind, pc of each side) with an
    occurrence count, and reported deterministically sorted.  The
    detector watches through a passive {!Probe}, so a run without it
    pays nothing. *)

(* growable sorted int vector (sequence numbers are appended in
   increasing order, so pushes keep it sorted) *)
type ivec = { mutable buf : int array; mutable len : int }

let ivec () = { buf = Array.make 16 0; len = 0 }

let push v x =
  if v.len = Array.length v.buf then begin
    let nb = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 nb 0 v.len;
    v.buf <- nb
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

(* smallest element > x, or None *)
let first_gt v x =
  let lo = ref 0 and hi = ref v.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v.buf.(mid) > x then hi := mid else lo := mid + 1
  done;
  if !lo < v.len then Some v.buf.(!lo) else None

type origin = { o_tcu : int; o_pc : int; o_time : int; o_seq : int }

type cell = {
  mutable writer : origin option;
  mutable readers : (int * origin) list;  (** latest read per TCU *)
}

type race = {
  r_addr : int;
  r_kind : string;  (** "write-write" | "read-write" *)
  r_epoch : int;
  r_tcu_a : int;
  r_pc_a : int;  (** earlier access *)
  r_tcu_b : int;
  r_pc_b : int;  (** later access *)
  r_time : int;  (** simulated time of the first detection *)
  mutable r_count : int;
}

type t = {
  mutable seq : int;  (** monotone event counter (logical order) *)
  mutable epoch : int;  (** spawn epoch, 1-based after the first spawn *)
  mutable events : int;  (** accesses observed *)
  shadow : (int, cell) Hashtbl.t;
  releases : (int, ivec) Hashtbl.t;  (* tcu -> release seqs *)
  acquires : (int, ivec) Hashtbl.t;  (* tcu -> acquire seqs *)
  found : (int * string * int * int, race) Hashtbl.t;
}

let create () =
  {
    seq = 0;
    epoch = 0;
    events = 0;
    shadow = Hashtbl.create 1024;
    releases = Hashtbl.create 64;
    acquires = Hashtbl.create 64;
    found = Hashtbl.create 16;
  }

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

let vec_of tbl tcu =
  match Hashtbl.find_opt tbl tcu with
  | Some v -> v
  | None ->
    let v = ivec () in
    Hashtbl.replace tbl tcu v;
    v

let on_release t ~tcu = push (vec_of t.releases tcu) (next_seq t)
let on_acquire t ~tcu = push (vec_of t.acquires tcu) (next_seq t)

let on_sync t ~tcu =
  on_acquire t ~tcu;
  on_release t ~tcu

(* New spawn region: fresh epoch, fresh shadow.  Sequence numbers stay
   monotone across epochs; races never span epochs because all spawn
   traffic is serviced before the join completes. *)
let on_spawn t =
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.shadow

(* [prior] happened-before [cur] through synchronization? *)
let separated t (prior : origin) ~cur_tcu ~cur_seq =
  match first_gt (vec_of t.releases prior.o_tcu) prior.o_seq with
  | None -> false
  | Some r -> (
    match first_gt (vec_of t.acquires cur_tcu) r with
    | Some a -> a < cur_seq
    | None -> false)

let report t ~kind (prior : origin) ~tcu ~pc ~addr ~time =
  let key = (addr, kind, prior.o_pc, pc) in
  match Hashtbl.find_opt t.found key with
  | Some r -> r.r_count <- r.r_count + 1
  | None ->
    Hashtbl.replace t.found key
      {
        r_addr = addr;
        r_kind = kind;
        r_epoch = t.epoch;
        r_tcu_a = prior.o_tcu;
        r_pc_a = prior.o_pc;
        r_tcu_b = tcu;
        r_pc_b = pc;
        r_time = time;
        r_count = 1;
      }

let cell_of t addr =
  match Hashtbl.find_opt t.shadow addr with
  | Some c -> c
  | None ->
    let c = { writer = None; readers = [] } in
    Hashtbl.replace t.shadow addr c;
    c

let check t prior ~kind ~tcu ~pc ~addr ~time ~seq =
  match prior with
  | Some (o : origin) when o.o_tcu <> tcu ->
    if not (separated t o ~cur_tcu:tcu ~cur_seq:seq) then
      report t ~kind o ~tcu ~pc ~addr ~time
  | _ -> ()

let on_read t ~tcu ~pc ~addr ~time =
  t.events <- t.events + 1;
  let seq = next_seq t in
  let c = cell_of t addr in
  check t c.writer ~kind:"read-write" ~tcu ~pc ~addr ~time ~seq;
  let o = { o_tcu = tcu; o_pc = pc; o_time = time; o_seq = seq } in
  c.readers <- (tcu, o) :: List.remove_assoc tcu c.readers

let on_write t ~tcu ~pc ~addr ~time =
  t.events <- t.events + 1;
  let seq = next_seq t in
  let c = cell_of t addr in
  check t c.writer ~kind:"write-write" ~tcu ~pc ~addr ~time ~seq;
  List.iter
    (fun (_, o) -> check t (Some o) ~kind:"read-write" ~tcu ~pc ~addr ~time ~seq)
    c.readers;
  c.writer <- Some { o_tcu = tcu; o_pc = pc; o_time = time; o_seq = seq };
  c.readers <- []

let races t =
  let rs = Hashtbl.fold (fun _ r acc -> r :: acc) t.found [] in
  List.sort
    (fun a b ->
      compare
        (a.r_addr, a.r_kind, a.r_pc_a, a.r_pc_b)
        (b.r_addr, b.r_kind, b.r_pc_a, b.r_pc_b))
    rs

let race_count t = Hashtbl.length t.found
let events t = t.events
let epochs t = t.epoch

let race_to_json (r : race) =
  Obs.Json.Obj
    [
      ("addr", Obs.Json.Int r.r_addr);
      ("kind", Obs.Json.Str r.r_kind);
      ("epoch", Obs.Json.Int r.r_epoch);
      ("tcu_a", Obs.Json.Int r.r_tcu_a);
      ("pc_a", Obs.Json.Int r.r_pc_a);
      ("tcu_b", Obs.Json.Int r.r_tcu_b);
      ("pc_b", Obs.Json.Int r.r_pc_b);
      ("time", Obs.Json.Int r.r_time);
      ("count", Obs.Json.Int r.r_count);
    ]

(* Simulated-schedule-only content: byte-identical for identical runs
   regardless of host parallelism or clock gating. *)
let to_json t =
  Obs.Json.Obj
    [
      ("races", Obs.Json.List (List.map race_to_json (races t)));
      ("epochs", Obs.Json.Int t.epoch);
      ("events", Obs.Json.Int t.events);
    ]

(* The machine's read/write/sync/release/spawn events, as a probe. *)
let probe m t =
  {
    Probe.nop with
    name = "racecheck";
    read = (fun ~tcu ~pc ~addr -> on_read t ~tcu ~pc ~addr ~time:(Machine.cycles m));
    write = (fun ~tcu ~pc ~addr -> on_write t ~tcu ~pc ~addr ~time:(Machine.cycles m));
    sync = (fun ~tcu -> on_sync t ~tcu);
    release = (fun ~tcu -> on_release t ~tcu);
    spawn = (fun ~lo:_ ~hi:_ -> on_spawn t);
  }

let attach m =
  let t = create () in
  ignore (Machine.attach m (probe m t) : unit -> unit);
  t
