exception Fault of string

let stack_top = 0x400000
let stack_bytes = 0x100000 (* 1 MiB master stack *)
let stack_base = stack_top - stack_bytes

type t = {
  data_base : int;
  mutable data : Isa.Value.t array;  (* indexed by (addr - data_base)/4 *)
  mutable data_len : int;  (* words in use (highest touched) *)
  mutable stack : Isa.Value.t array;
      (* slot [i] holds [stack_top - 4 * (i + 1)]; grows on the first write
         past its end, and slots past it read as zero *)
}

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let load (img : Isa.Program.image) =
  let size = img.Isa.Program.data_size in
  let data = Array.make size Isa.Value.zero in
  List.iter
    (fun (word0, vals) -> Array.blit vals 0 data word0 (Array.length vals))
    img.Isa.Program.data_init;
  { data_base = img.Isa.Program.data_base; data; data_len = size;
    stack = Array.make 64 Isa.Value.zero }

(* [arr]'s first [used] cells in a fresh array of at least [want] cells:
   twice as long, but at most [limit] *)
let grow arr ~want ~used ~limit =
  let narr = Array.make (min limit (max want (2 * Array.length arr))) Isa.Value.zero in
  Array.blit arr 0 narr 0 used;
  narr

(* The cell of [addr], unboxed: data-region word [i] is [i], stack slot
   [i] is [-1 - i]. *)
let locate t addr =
  if addr land 3 <> 0 then fault "unaligned access at 0x%x" addr;
  if addr >= stack_base && addr < stack_top then (addr - stack_top) / 4
  else if addr >= t.data_base then begin
    let idx = (addr - t.data_base) / 4 in
    if t.data_base + (4 * idx) >= stack_base then
      fault "access beyond memory at 0x%x" addr;
    idx
  end
  else fault "access to unmapped address 0x%x" addr

let read t addr =
  let i = locate t addr in
  if i < 0 then begin
    let j = -1 - i in
    if j < Array.length t.stack then t.stack.(j) else Isa.Value.zero
  end
  else if i < t.data_len then t.data.(i)
  else Isa.Value.zero

let write t addr v =
  let i = locate t addr in
  if i < 0 then begin
    let j = -1 - i in
    if j >= Array.length t.stack then
      t.stack <-
        grow t.stack ~want:(j + 1) ~used:(Array.length t.stack) ~limit:(stack_bytes / 4);
    t.stack.(j) <- v
  end
  else begin
    (* [locate] keeps [i] inside the region below the stack *)
    if i >= Array.length t.data then
      t.data <- grow t.data ~want:(i + 1) ~used:t.data_len ~limit:((stack_base - t.data_base) / 4);
    if i >= t.data_len then t.data_len <- i + 1;
    t.data.(i) <- v
  end

let fetch_add t addr inc =
  let old = Isa.Value.to_int (read t addr) in
  write t addr (Isa.Value.int (old + inc));
  old

let read_string t addr =
  let buf = Buffer.create 16 in
  let rec go a =
    match Isa.Value.to_int (read t a) with
    | 0 -> Buffer.contents buf
    | c when Buffer.length buf > 65536 -> fault "unterminated string at 0x%x" c
    | c ->
      Buffer.add_char buf (Char.chr (c land 0xFF));
      go (a + 4)
  in
  go addr

let data_words t = t.data_len

let snapshot t =
  {
    data_base = t.data_base;
    data = Array.sub t.data 0 t.data_len;
    data_len = t.data_len;
    stack = Array.copy t.stack;
  }

let restore t snap =
  t.data <- Array.copy snap.data;
  t.data_len <- snap.data_len;
  t.stack <- Array.copy snap.stack
