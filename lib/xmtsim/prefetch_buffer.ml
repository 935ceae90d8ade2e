(* Entries live in parallel arrays; the live ones are slots [0, count).
   Addresses are unique, so slot order carries no meaning and a removal
   moves the last entry into the freed slot. *)
type t = {
  size : int;
  policy : Config.prefetch_policy;
  addrs : int array;
  ready : bool array;  (* data arrived; otherwise in flight *)
  values : Isa.Value.t array;  (* ready entries' data *)
  waiters : int option array;  (* in-flight entries: the load attached *)
  stamps : int array;  (* FIFO: allocation order; LRU: last touch *)
  mutable count : int;
  mutable tick : int;
  mutable evictions : int;
}

type lookup = Hit of Isa.Value.t | In_flight | Miss

let create ~size ~policy =
  let n = max 0 size in
  { size; policy; addrs = Array.make n 0; ready = Array.make n false;
    values = Array.make n Isa.Value.zero; waiters = Array.make n None;
    stamps = Array.make n 0; count = 0; tick = 0; evictions = 0 }

(* slot of [addr] at or after [i], or -1 *)
let rec find t addr i =
  if i >= t.count then -1 else if t.addrs.(i) = addr then i else find t addr (i + 1)

let remove t i =
  let last = t.count - 1 in
  t.addrs.(i) <- t.addrs.(last);
  t.ready.(i) <- t.ready.(last);
  t.values.(i) <- t.values.(last);
  t.waiters.(i) <- t.waiters.(last);
  t.stamps.(i) <- t.stamps.(last);
  t.count <- last

(* slot with the smallest stamp at or after [i] (stamps are unique) *)
let rec oldest t best i =
  if i >= t.count then best
  else oldest t (if t.stamps.(i) < t.stamps.(best) then i else best) (i + 1)

let start t addr =
  if t.size <= 0 || find t addr 0 >= 0 then false
  else begin
    if t.count >= t.size then begin
      t.evictions <- t.evictions + 1;
      remove t (oldest t 0 1)
    end;
    t.tick <- t.tick + 1;
    let i = t.count in
    t.addrs.(i) <- addr;
    t.ready.(i) <- false;
    t.waiters.(i) <- None;
    t.stamps.(i) <- t.tick;
    t.count <- i + 1;
    true
  end

let fill t addr v =
  let i = find t addr 0 in
  if i < 0 || t.ready.(i) then None (* evicted while in flight, or a duplicate *)
  else begin
    let waiter = t.waiters.(i) in
    t.ready.(i) <- true;
    t.values.(i) <- v;
    t.waiters.(i) <- None;
    waiter
  end

let lookup t addr =
  let i = find t addr 0 in
  if i < 0 then Miss
  else begin
    (match t.policy with
    | Config.Lru ->
      t.tick <- t.tick + 1;
      t.stamps.(i) <- t.tick
    | Config.Fifo -> ());
    if t.ready.(i) then Hit t.values.(i) else In_flight
  end

let wait_on t addr dst =
  let i = find t addr 0 in
  if i < 0 || t.ready.(i) then invalid_arg "Prefetch_buffer.wait_on: entry is not in flight"
  else if t.waiters.(i) <> None then
    invalid_arg "Prefetch_buffer.wait_on: entry already has a waiter"
  else t.waiters.(i) <- Some dst

let invalidate t addr =
  let i = find t addr 0 in
  if i >= 0 then remove t i

let evictions t = t.evictions

let clear t = t.count <- 0
