(* Two stores share one sequence counter, so every event has a distinct
   key (time, prio, seq) and the earliest key decides between them.

   The timing wheel holds the events whose time lies in
   [base, base + slots).  Slot [time land mask] then holds exactly the
   events at that time, as an intrusive list of pooled nodes sorted by
   (prio, seq): [head] and [tail] give a slot's first and last node and
   [next] links the nodes.  A new event has the largest seq so far, so it
   goes after every node of its prio or lower: usually at the tail.  Bit
   [s] of the [occ] bitmap is set while slot [s] is non-empty.

   [base] is the time of the latest popped event and never decreases.
   Every remaining event is at or after the popped one, so the wheel's
   events stay inside the window as it slides forward.  The scheduler
   adds at or after its current time, which is [base]; the overflow heap
   takes what falls outside the window: the budget stop far ahead, or an
   out-of-order add below [base] when the module is used on its own.
   Nothing migrates between the stores: [locate] compares the two
   minima, and [hmin] keeps the heap's minimum time at hand, so the usual
   case compares two ints.

   [locate] caches the earliest event (its store, key and wheel slot)
   for [top_time], [top_prio] and [pop].  An add that sorts before it
   and a remove drop the cache; so does a pop, unless the popped event's
   slot holds the next one.  An add to an empty wheel that sorts before
   the heap's minimum is the earliest event, so it sets the cache: with
   one event pending at a time, nothing searches.

   Node [n]'s payload sits in [pay.(n)]; a free node holds the immediate
   [vacant], keeps nothing alive, and links the free list through
   [next].  The payload pools (here and in the heap) hold [Obj.t] so a
   free entry can hold [vacant]: [create] gets no ['a] to fill an
   ['a array] with.  This is safe: a pool is built from an int, so it is
   never a flat float array, and each payload is read back at the type
   [add] stored it at.  Pool arrays grow by doubling; once grown, nothing
   is allocated. *)

let vacant = Obj.repr 0

(* The overflow: a binary min-heap of int keys.  Position [i] holds the
   key (time.(i), prio.(i), seq.(i)) and the pool slot of its payload,
   slot.(i), so a sift level moves four ints and never goes through the
   write barrier.

   [slot] is a permutation of the pool's slots: positions [0, len) are
   the heap, positions [len, capacity) are the stack of free slots, with
   its top at [len].  [add] takes the slot at [len]; [take] puts the slot
   it frees back at the new [len]. *)
module Heap = struct
  type t = {
    mutable time : int array;
    mutable prio : int array;
    mutable seq : int array;
    mutable slot : int array;
    mutable pool : Obj.t array;
    mutable len : int;
  }

  let create () = { time = [||]; prio = [||]; seq = [||]; slot = [||]; pool = [||]; len = 0 }

  (* position [i] orders strictly before the key (time, prio, seq) *)
  let[@inline] before h i time prio seq =
    let ti = h.time.(i) and pi = h.prio.(i) in
    ti < time || (ti = time && (pi < prio || (pi = prio && h.seq.(i) < seq)))

  let[@inline] set h i time prio seq s =
    h.time.(i) <- time;
    h.prio.(i) <- prio;
    h.seq.(i) <- seq;
    h.slot.(i) <- s

  let[@inline] move h ~src ~dst = set h dst h.time.(src) h.prio.(src) h.seq.(src) h.slot.(src)

  (* double the capacity when full; the new slots join the free stack *)
  let grow h =
    let cap = Array.length h.time in
    if h.len = cap then begin
      let n = max 16 (2 * cap) in
      let extend a fill =
        let b = Array.make n fill in
        Array.blit a 0 b 0 cap;
        b
      in
      h.time <- extend h.time 0;
      h.prio <- extend h.prio 0;
      h.seq <- extend h.seq 0;
      h.slot <- extend h.slot 0;
      for k = cap to n - 1 do
        h.slot.(k) <- k
      done;
      h.pool <- extend h.pool vacant
    end

  (* Move the hole at [i] up past every ancestor that orders after the
     key; return where the key belongs. *)
  let rec sift_up h i time prio seq =
    if i = 0 then 0
    else
      let parent = (i - 1) / 2 in
      if before h parent time prio seq then i
      else begin
        move h ~src:parent ~dst:i;
        sift_up h parent time prio seq
      end

  (* Move the hole at [i] down to a leaf, each time past the smaller
     child among the first [len] positions; return the leaf.  Refilling a
     hole this way and then sifting the key up from the leaf (Floyd)
     takes one comparison per level on the way down, not two. *)
  let rec hole_down h i len =
    let l = (2 * i) + 1 in
    if l >= len then i
    else begin
      let c = if l + 1 < len && before h (l + 1) h.time.(l) h.prio.(l) h.seq.(l) then l + 1 else l in
      move h ~src:c ~dst:i;
      hole_down h c len
    end

  let add h ~time ~prio ~seq x =
    grow h;
    let s = h.slot.(h.len) in
    h.pool.(s) <- x;
    let i = sift_up h h.len time prio seq in
    h.len <- h.len + 1;
    set h i time prio seq s

  (* Take the entry at position [i] out of the heap: move the hole to a
     leaf, sift the last entry up from there (it may end above [i]) and
     push the freed slot.  Return the payload. *)
  let take h i =
    let s = h.slot.(i) in
    let x = h.pool.(s) in
    h.pool.(s) <- vacant;
    let last = h.len - 1 in
    h.len <- last;
    if i < last then begin
      let time = h.time.(last) and prio = h.prio.(last) and seq = h.seq.(last)
      and sl = h.slot.(last) in
      set h (sift_up h (hole_down h i last) time prio seq) time prio seq sl
    end;
    h.slot.(last) <- s;
    x

  (* take the entry whose payload is physically [x]; false if none *)
  let remove h x =
    let rec find i = if i >= h.len then -1 else if h.pool.(h.slot.(i)) == x then i else find (i + 1) in
    let i = find 0 in
    if i >= 0 then ignore (take h i);
    i >= 0

  let min_time h = if h.len = 0 then max_int else h.time.(0)
end

let slots = 1024
let mask = slots - 1

(* the bitmap's words hold 32 bits each *)
let words = slots / 32

(* where [locate] found the earliest event *)
type src = Unknown | In_wheel | In_heap

type 'a t = {
  head : int array;  (** first node of each slot, or -1 *)
  tail : int array;  (** last node of each slot, or -1 *)
  occ : int array;  (** bit [s land 31] of word [s lsr 5]: slot [s] is non-empty *)
  mutable base : int;
  mutable count : int;  (** events in the wheel *)
  mutable prio : int array;
  mutable seq : int array;
  mutable next : int array;
  mutable pay : Obj.t array;
  mutable free : int;  (** first free node, or -1 *)
  heap : Heap.t;
  mutable hmin : int;  (** [Heap.min_time heap] *)
  mutable next_seq : int;
  mutable src : src;
  mutable top_t : int;
  mutable top_p : int;
  mutable top_s : int;  (** the earliest event's slot, when [src = In_wheel] *)
}

let create () =
  {
    head = Array.make slots (-1);
    tail = Array.make slots (-1);
    occ = Array.make words 0;
    base = 0;
    count = 0;
    prio = [||];
    seq = [||];
    next = [||];
    pay = [||];
    free = -1;
    heap = Heap.create ();
    hmin = max_int;
    next_seq = 0;
    src = Unknown;
    top_t = 0;
    top_p = 0;
    top_s = 0;
  }

(* index of the lowest set bit of a non-zero 32-bit word (de Bruijn) *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23; 21; 19; 16; 7;
     26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] lowest_bit w = debruijn.((((w land -w) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* double the node pool; the new nodes join the free list *)
let grow h =
  let cap = Array.length h.prio in
  let n = max 64 (2 * cap) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 cap;
    b
  in
  h.prio <- extend h.prio 0;
  h.seq <- extend h.seq 0;
  h.next <- extend h.next (-1);
  h.pay <- extend h.pay vacant;
  for k = cap to n - 2 do
    h.next.(k) <- k + 1
  done;
  h.next.(n - 1) <- h.free;
  h.free <- cap

(* the last node from [p] on, along a list whose tail orders after
   [prio], with prio at most [prio] *)
let rec last_at_most h p prio =
  let q = h.next.(p) in
  if h.prio.(q) <= prio then last_at_most h q prio else p

let wheel_add h time prio seq x =
  if h.free < 0 then grow h;
  let n = h.free in
  h.free <- h.next.(n);
  h.prio.(n) <- prio;
  h.seq.(n) <- seq;
  h.pay.(n) <- x;
  let s = time land mask in
  let last = h.tail.(s) in
  if last < 0 then begin
    h.next.(n) <- -1;
    h.head.(s) <- n;
    h.tail.(s) <- n;
    h.occ.(s lsr 5) <- h.occ.(s lsr 5) lor (1 lsl (s land 31))
  end
  else if h.prio.(last) <= prio then begin
    h.next.(n) <- -1;
    h.next.(last) <- n;
    h.tail.(s) <- n
  end
  else begin
    let first = h.head.(s) in
    if h.prio.(first) > prio then begin
      h.next.(n) <- first;
      h.head.(s) <- n
    end
    else begin
      let p = last_at_most h first prio in
      h.next.(n) <- h.next.(p);
      h.next.(p) <- n
    end
  end;
  h.count <- h.count + 1

let add h ~time ~prio x =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  if h.src <> Unknown && (time < h.top_t || (time = h.top_t && prio < h.top_p)) then
    h.src <- Unknown;
  if time >= h.base && time - h.base < slots then begin
    if h.count = 0 && time < h.hmin then begin
      (* alone in the wheel and before the heap: the earliest event *)
      h.src <- In_wheel;
      h.top_t <- time;
      h.top_p <- prio;
      h.top_s <- time land mask
    end;
    wheel_add h time prio seq (Obj.repr x)
  end
  else begin
    Heap.add h.heap ~time ~prio ~seq (Obj.repr x);
    h.hmin <- Heap.min_time h.heap
  end

(* The first non-empty slot at or after [base]'s, going round once: word
   [w0]'s bits from [base]'s slot up, then the whole words after it,
   ending at [w0] again for the slots before [base]'s.  The wheel must
   not be empty. *)
let rec scan h w0 i =
  let w = (w0 + i) land (words - 1) in
  let bits = h.occ.(w) in
  if bits <> 0 then (w lsl 5) lor lowest_bit bits else scan h w0 (i + 1)

let first_slot h =
  let s0 = h.base land mask in
  let w0 = s0 lsr 5 in
  let bits = h.occ.(w0) land (-1 lsl (s0 land 31)) in
  if bits <> 0 then (w0 lsl 5) lor lowest_bit bits else scan h w0 1

let cache_heap_top h =
  h.src <- In_heap;
  h.top_t <- h.hmin;
  h.top_p <- h.heap.Heap.prio.(0)

(* Find and cache the earliest event; raise [Not_found] if there is none. *)
let locate h =
  if h.count > 0 then begin
    let s = first_slot h in
    let t = h.base + ((s - h.base) land mask) in
    let n = h.head.(s) in
    let p = h.prio.(n) in
    if t < h.hmin || h.heap.Heap.len = 0 || not (Heap.before h.heap 0 t p h.seq.(n)) then begin
      h.src <- In_wheel;
      h.top_t <- t;
      h.top_p <- p;
      h.top_s <- s
    end
    else cache_heap_top h
  end
  else if h.heap.Heap.len > 0 then cache_heap_top h
  else raise Not_found

let top_time h =
  if h.src = Unknown then locate h;
  h.top_t

let top_prio h =
  if h.src = Unknown then locate h;
  h.top_p

(* unlink node [n] (after [prev], or the head if -1) from slot [s] and
   free it; return its payload *)
let unlink h s prev n =
  let nx = h.next.(n) in
  if prev < 0 then h.head.(s) <- nx else h.next.(prev) <- nx;
  if nx < 0 then begin
    h.tail.(s) <- prev;
    if prev < 0 then h.occ.(s lsr 5) <- h.occ.(s lsr 5) land lnot (1 lsl (s land 31))
  end;
  h.count <- h.count - 1;
  let x = h.pay.(n) in
  h.pay.(n) <- vacant;
  h.next.(n) <- h.free;
  h.free <- n;
  x

let pop (h : 'a t) : 'a =
  if h.src = Unknown then locate h;
  let t = h.top_t in
  if t > h.base then h.base <- t;
  if h.src = In_wheel then begin
    let s = h.top_s in
    let x = unlink h s (-1) h.head.(s) in
    (* the slot's next node is the earliest event unless the heap holds
       one at the same time *)
    let n = h.head.(s) in
    if n >= 0 && t < h.hmin then h.top_p <- h.prio.(n) else h.src <- Unknown;
    Obj.obj x
  end
  else begin
    let x = Heap.take h.heap 0 in
    h.hmin <- Heap.min_time h.heap;
    h.src <- Unknown;
    Obj.obj x
  end

(* find the node holding [x] in slot [s]'s list from [n] on and take
   it out; false if none *)
let rec remove_in h s prev n x =
  if n < 0 then false
  else if h.pay.(n) == x then begin
    ignore (unlink h s prev n);
    true
  end
  else remove_in h s n h.next.(n) x

(* visit the occupied slots of words [i, words) after [w0], nearest
   [base] first *)
let rec remove_wheel h w0 i x =
  i < words
  &&
  let w = (w0 + i) land (words - 1) in
  remove_bits h w0 i w h.occ.(w) x

and remove_bits h w0 i w bits x =
  if bits = 0 then remove_wheel h w0 (i + 1) x
  else
    let s = (w lsl 5) lor lowest_bit bits in
    remove_in h s (-1) h.head.(s) x || remove_bits h w0 i w (bits land (bits - 1)) x

let remove h x =
  let x = Obj.repr x in
  h.src <- Unknown;
  if not (h.count > 0 && remove_wheel h ((h.base land mask) lsr 5) 0 x) then
    if Heap.remove h.heap x then h.hmin <- Heap.min_time h.heap

let min_time h = if h.count = 0 && h.heap.Heap.len = 0 then None else Some (top_time h)
let is_empty h = h.count = 0 && h.heap.Heap.len = 0
