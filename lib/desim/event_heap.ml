(* The heap orders int keys only.  Position [i] holds the key
   (time.(i), prio.(i), seq.(i)) and the pool slot of its payload,
   slot.(i), so a sift level moves four ints and never goes through the
   write barrier.  Each payload is written into [pool] once, by [add],
   and read once, by [pop].

   [slot] is a permutation of the pool's slots: positions [0, len) are
   the heap, positions [len, capacity) are the stack of free slots, with
   its top at [len].  [add] takes the slot at [len]; [pop] and [remove]
   put the slot they free back at the new [len].

   The pool holds [Obj.t] so a free slot can hold the immediate [vacant]
   and keep nothing alive: [create] gets no ['a] to fill an ['a array]
   with.  This is safe: the pool is built from an int, so it is never a
   flat float array, and each payload is read back at the type [add]
   stored it at.  Arrays grow by doubling; once grown, nothing is
   allocated. *)
type 'a t = {
  mutable time : int array;
  mutable prio : int array;
  mutable seq : int array;
  mutable slot : int array;
  mutable pool : Obj.t array;
  mutable len : int;
  mutable next_seq : int;
}

let vacant = Obj.repr 0

let create () =
  { time = [||]; prio = [||]; seq = [||]; slot = [||]; pool = [||]; len = 0; next_seq = 0 }

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

(* Move the hole at [i] up past every ancestor that orders after the key;
   return where the key belongs. *)
let rec sift_up h i time prio seq =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    if before h parent time prio seq then i
    else begin
      move h ~src:parent ~dst:i;
      sift_up h parent time prio seq
    end

(* Move the hole at [i] down to a leaf, each time past the smaller child
   among the first [len] positions; return the leaf.  Refilling a hole
   this way and then sifting the key up from the leaf (Floyd) takes one
   comparison per level on the way down, not two. *)
let rec hole_down h i len =
  let l = (2 * i) + 1 in
  if l >= len then i
  else begin
    let c = if l + 1 < len && before h (l + 1) h.time.(l) h.prio.(l) h.seq.(l) then l + 1 else l in
    move h ~src:c ~dst:i;
    hole_down h c len
  end

let add h ~time ~prio x =
  grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let s = h.slot.(h.len) in
  h.pool.(s) <- Obj.repr x;
  let i = sift_up h h.len time prio seq in
  h.len <- h.len + 1;
  set h i time prio seq s

let top_time h = if h.len = 0 then raise Not_found else h.time.(0)
let top_prio h = if h.len = 0 then raise Not_found else h.prio.(0)

(* Take the entry at position [i] out of the heap: move the hole to a
   leaf, sift the last entry up from there (it may end above [i]) and
   push the freed slot.  Return the payload. *)
let take (h : 'a t) i : 'a =
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
  Obj.obj x

let pop h = if h.len = 0 then raise Not_found else take h 0

let remove h x =
  let x = Obj.repr x in
  let rec find i = if i >= h.len then -1 else if h.pool.(h.slot.(i)) == x then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then ignore (take h i)

let min_time h = if h.len = 0 then None else Some h.time.(0)
let is_empty h = h.len = 0
