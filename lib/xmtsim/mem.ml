exception Fault of string

let stack_top = 0x400000
let stack_bytes = 0x100000 (* 1 MiB master stack *)
let stack_base = stack_top - stack_bytes

type t = {
  data_base : int;
  mutable data : Isa.Value.t array;  (* indexed by (addr - data_base)/4 *)
  mutable data_len : int;  (* words in use (highest touched) *)
  stack : Isa.Value.t array;  (* indexed by (addr - stack_base)/4 *)
}

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let load (img : Isa.Program.image) =
  let n = Array.length img.Isa.Program.data_words in
  let data = Array.make (max 64 (2 * n)) Isa.Value.zero in
  Array.blit img.Isa.Program.data_words 0 data 0 n;
  {
    data_base = img.Isa.Program.data_base;
    data;
    data_len = n;
    stack = Array.make (stack_bytes / 4) Isa.Value.zero;
  }

let grow t want =
  let cap = Array.length t.data in
  if want > cap then begin
    let ncap = max want (2 * cap) in
    if t.data_base + (4 * ncap) > stack_base then
      fault "data/heap region collides with the stack (%d words)" ncap;
    let narr = Array.make ncap Isa.Value.zero in
    Array.blit t.data 0 narr 0 t.data_len;
    t.data <- narr
  end

(* The cell of [addr], unboxed: data-region word [i] is [i], stack slot
   [i] is [-1 - i]. *)
let locate t addr =
  if addr land 3 <> 0 then fault "unaligned access at 0x%x" addr;
  if addr >= stack_base && addr < stack_top then -1 - ((addr - stack_base) / 4)
  else if addr >= t.data_base then begin
    let idx = (addr - t.data_base) / 4 in
    if t.data_base + (4 * idx) >= stack_base then
      fault "access beyond memory at 0x%x" addr;
    idx
  end
  else fault "access to unmapped address 0x%x" addr

let read t addr =
  let i = locate t addr in
  if i < 0 then t.stack.(-1 - i)
  else if i < t.data_len then t.data.(i)
  else Isa.Value.zero

let write t addr v =
  let i = locate t addr in
  if i < 0 then t.stack.(-1 - i) <- v
  else begin
    grow t (i + 1);
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
    data = Array.copy t.data;
    data_len = t.data_len;
    stack = Array.copy t.stack;
  }

let restore t snap =
  t.data <- Array.copy snap.data;
  t.data_len <- snap.data_len;
  Array.blit snap.stack 0 t.stack 0 (Array.length t.stack)
