(* Struct-of-arrays binary heap: adding and popping an event moves ints
   and one payload pointer and allocates nothing (arrays grow by
   doubling). *)
type 'a t = {
  mutable time : int array;
  mutable prio : int array;
  mutable seq : int array;
  mutable payload : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { time = [||]; prio = [||]; seq = [||]; payload = [||]; len = 0; next_seq = 0 }

(* slot [i] orders strictly before the key (time, prio, seq) *)
let[@inline] before h i time prio seq =
  let ti = h.time.(i) and pi = h.prio.(i) in
  ti < time || (ti = time && (pi < prio || (pi = prio && h.seq.(i) < seq)))

let[@inline] set h i time prio seq x =
  h.time.(i) <- time;
  h.prio.(i) <- prio;
  h.seq.(i) <- seq;
  h.payload.(i) <- x

let[@inline] move h ~src ~dst = set h dst h.time.(src) h.prio.(src) h.seq.(src) h.payload.(src)

(* double the capacity when full *)
let grow h x =
  if h.len = Array.length h.time then begin
    let extend a fill = Array.append a (Array.make (max 16 h.len) fill) in
    h.time <- extend h.time 0;
    h.prio <- extend h.prio 0;
    h.seq <- extend h.seq 0;
    h.payload <- extend h.payload x
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

(* Move the hole at [i] down past every smaller child among the first
   [len] slots; return where the key belongs. *)
let rec sift_down h i len time prio seq =
  let l = (2 * i) + 1 in
  if l >= len then i
  else
    let c = if l + 1 < len && before h (l + 1) h.time.(l) h.prio.(l) h.seq.(l) then l + 1 else l in
    if before h c time prio seq then begin
      move h ~src:c ~dst:i;
      sift_down h c len time prio seq
    end
    else i

let add h ~time ~prio x =
  grow h x;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = sift_up h h.len time prio seq in
  h.len <- h.len + 1;
  set h i time prio seq x

let top_time h = if h.len = 0 then raise Not_found else h.time.(0)
let top_prio h = if h.len = 0 then raise Not_found else h.prio.(0)

let pop h =
  if h.len = 0 then raise Not_found;
  let x = h.payload.(0) in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then begin
    let time = h.time.(last) and prio = h.prio.(last) and seq = h.seq.(last) in
    let y = h.payload.(last) in
    set h (sift_down h 0 last time prio seq) time prio seq y
  end;
  x

let remove h x =
  let rec find i = if i >= h.len then -1 else if h.payload.(i) == x then i else find (i + 1) in
  let i = find 0 in
  let last = h.len - 1 in
  if i >= 0 then h.len <- last;
  if i >= 0 && i < last then begin
    (* refill the hole with the last key, which may belong above or below it *)
    let time = h.time.(last) and prio = h.prio.(last) and seq = h.seq.(last) in
    let j = sift_up h i time prio seq in
    set h (if j = i then sift_down h i last time prio seq else j) time prio seq h.payload.(last)
  end

let min_time h = if h.len = 0 then None else Some h.time.(0)
let is_empty h = h.len = 0
