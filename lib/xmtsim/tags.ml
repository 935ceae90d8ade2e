type t = {
  sets : int;
  assoc : int;
  line_bytes : int;
  (* tags.(set * assoc + way) = line address, or -1 *)
  tags : int array;
  (* LRU stamps *)
  stamps : int array;
  mutable tick : int;
}

let create ~lines ~assoc ~line_words =
  let lines = max 0 lines in
  let assoc = max 1 assoc in
  let sets = max 1 (lines / assoc) in
  {
    sets = (if lines = 0 then 0 else sets);
    assoc;
    line_bytes = 4 * max 1 line_words;
    tags = Array.make (max 1 (sets * assoc)) (-1);
    stamps = Array.make (max 1 (sets * assoc)) 0;
    tick = 0;
  }

let line_of t addr = addr / t.line_bytes * t.line_bytes

(* a hit on [line] in the ways of the set at [base], from way [w] *)
let rec hit t base line w =
  if w >= t.assoc then false
  else if t.tags.(base + w) = line then begin
    t.tick <- t.tick + 1;
    t.stamps.(base + w) <- t.tick;
    true
  end
  else hit t base line (w + 1)

let lookup t addr =
  if t.sets = 0 then false
  else begin
    let line = line_of t addr in
    let set = line / t.line_bytes mod t.sets in
    hit t (set * t.assoc) line 0
  end

let install t addr =
  if t.sets > 0 then begin
    let line = line_of t addr in
    let set = line / t.line_bytes mod t.sets in
    let base = set * t.assoc in
    (* find existing or LRU victim *)
    let victim = ref 0 in
    let found = ref false in
    for w = 0 to t.assoc - 1 do
      if t.tags.(base + w) = line then begin
        victim := w;
        found := true
      end
    done;
    if not !found then begin
      for w = 1 to t.assoc - 1 do
        if t.stamps.(base + w) < t.stamps.(base + !victim) then victim := w
      done
    end;
    t.tick <- t.tick + 1;
    t.tags.(base + !victim) <- line;
    t.stamps.(base + !victim) <- t.tick
  end

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1)

let hits_possible t = t.sets > 0
