(** Growable FIFO queue in a circular array: once grown to its peak
    length it allocates nothing, where [Stdlib.Queue] allocates a cell
    per element.  Vacated slots hold [dummy] so they keep nothing alive. *)

type 'a t = {
  mutable buf : 'a array;  (* capacity is a power of two *)
  mutable head : int;
  mutable len : int;
  dummy : 'a;
}

let create dummy = { buf = Array.make 8 dummy; head = 0; len = 0; dummy }
let is_empty q = q.len = 0

let push q x =
  let cap = Array.length q.buf in
  if q.len = cap then begin
    let buf = Array.make (2 * cap) q.dummy in
    for i = 0 to q.len - 1 do
      buf.(i) <- q.buf.((q.head + i) land (cap - 1))
    done;
    q.buf <- buf;
    q.head <- 0
  end;
  q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- x;
  q.len <- q.len + 1

(* Raises [Invalid_argument] on an empty queue. *)
let pop q =
  if q.len = 0 then invalid_arg "Ring.pop: empty";
  let x = q.buf.(q.head) in
  q.buf.(q.head) <- q.dummy;
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1;
  x
