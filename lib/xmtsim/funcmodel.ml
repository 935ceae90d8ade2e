module I = Isa.Instr
module V = Isa.Value

type ctx = {
  regs : int array;
  fregs : float array;
  mutable pc : int;
  mutable addr : int;
  mutable dst : int;
  mutable ro : bool;
  mutable nb : bool;
  mutable value : V.t;
  mutable inc : int;
}

let make_ctx () =
  { regs = Array.make 32 0; fregs = Array.make 32 0.0; pc = 0; addr = 0; dst = 0;
    ro = false; nb = false; value = V.zero; inc = 0 }

let copy_regs ~src ~dst =
  Array.blit src.regs 0 dst.regs 0 32;
  Array.blit src.fregs 0 dst.fregs 0 32

let join_map ~error img =
  let fail fmt = Printf.ksprintf (fun s -> raise (error s)) fmt in
  let join_of = Hashtbl.create 8 in
  let open_spawn = ref None in
  Array.iteri
    (fun i ins ->
      match ins with
      | I.Spawn _ -> (
        match !open_spawn with
        | Some _ -> fail "nested spawn in program text at %d" i
        | None -> open_spawn := Some i)
      | I.Join -> (
        match !open_spawn with
        | Some s ->
          Hashtbl.replace join_of s i;
          open_spawn := None
        | None -> fail "join without spawn at %d" i)
      | _ -> ())
    img.Isa.Program.instrs;
  (match !open_spawn with Some s -> fail "unmatched spawn at %d" s | None -> ());
  join_of

exception Runtime_error of { pc : int; msg : string }

let err pc fmt = Printf.ksprintf (fun msg -> raise (Runtime_error { pc; msg })) fmt

type issue =
  | Done
  | Load
  | Store
  | Psm
  | Prefetch
  | Ps of { dst : int; g : int; inc : int }
  | Spawn of { lo : int; hi : int }
  | Join
  | Chkid of { id : int }
  | Mfg of { dst : int; g : int }
  | Mtg of { g : int; src : int }
  | Fence
  | Halt
  | Output of string

(* Register access and pc updates for [issue]: top-level functions, not
   closures over [ctx], so issuing allocates nothing. *)
let[@inline] r ctx i = if i = 0 then 0 else ctx.regs.(i)
let[@inline] w ctx i v = if i <> 0 then ctx.regs.(i) <- V.wrap32 v

(* fall through to the next instruction, issuing [res] *)
let[@inline] next ctx pc res =
  ctx.pc <- pc + 1;
  res

let jump ctx pc t =
  if t < 0 then err pc "unresolved branch target" else ctx.pc <- t;
  Done

let load ctx pc ~dst ~addr ~ro =
  ctx.dst <- dst;
  ctx.addr <- addr;
  ctx.ro <- ro;
  next ctx pc Load

let store ctx pc ~addr ~value ~nb =
  ctx.addr <- addr;
  ctx.value <- value;
  ctx.nb <- nb;
  next ctx pc Store

let issue (img : Isa.Program.image) ctx ~read_str : issue =
  let pc = ctx.pc in
  let n = Array.length img.Isa.Program.instrs in
  if pc < 0 || pc >= n then err pc "program counter out of range";
  let ins = img.Isa.Program.instrs.(pc) in
  let tgt = img.Isa.Program.targets.(pc) in
  match ins with
  | I.Alu (op, rd, rs, rt) ->
    let a = r ctx rs and b = r ctx rt in
    let v =
      match op with
      | I.Add -> a + b
      | I.Sub -> a - b
      | I.And -> a land b
      | I.Or -> a lor b
      | I.Xor -> a lxor b
      | I.Nor -> lnot (a lor b)
      | I.Slt -> Bool.to_int (a < b)
      | I.Sltu -> Bool.to_int (a land 0xFFFFFFFF < b land 0xFFFFFFFF)
    in
    w ctx rd v;
    next ctx pc Done
  | I.Alui (op, rd, rs, imm) ->
    let a = r ctx rs in
    let v =
      match op with
      | I.Addi -> a + imm
      | I.Andi -> a land imm
      | I.Ori -> a lor imm
      | I.Xori -> a lxor imm
      | I.Slti -> Bool.to_int (a < imm)
    in
    w ctx rd v;
    next ctx pc Done
  | I.Li (rd, imm) ->
    w ctx rd imm;
    next ctx pc Done
  | I.La (rd, _) ->
    if tgt < 0 then err pc "unresolved la";
    w ctx rd tgt;
    next ctx pc Done
  | I.Sft (op, rd, rs, rt) ->
    let a = r ctx rs and s = r ctx rt land 31 in
    let v =
      match op with
      | I.Sll -> a lsl s
      | I.Srl -> (a land 0xFFFFFFFF) lsr s
      | I.Sra -> a asr s
    in
    w ctx rd v;
    next ctx pc Done
  | I.Sfti (op, rd, rs, imm) ->
    let a = r ctx rs and s = imm land 31 in
    let v =
      match op with
      | I.Sll -> a lsl s
      | I.Srl -> (a land 0xFFFFFFFF) lsr s
      | I.Sra -> a asr s
    in
    w ctx rd v;
    next ctx pc Done
  | I.Mdu (op, rd, rs, rt) ->
    let a = r ctx rs and b = r ctx rt in
    let v =
      match op with
      | I.Mul -> a * b
      | I.Div -> if b = 0 then err pc "division by zero" else a / b
      | I.Rem -> if b = 0 then err pc "division by zero" else a mod b
    in
    w ctx rd v;
    next ctx pc Done
  | I.Fpu (op, fd, fs, ft) ->
    let a = ctx.fregs.(fs) and b = ctx.fregs.(ft) in
    let v =
      match op with
      | I.Fadd -> a +. b
      | I.Fsub -> a -. b
      | I.Fmul -> a *. b
      | I.Fdiv -> a /. b
    in
    ctx.fregs.(fd) <- v;
    next ctx pc Done
  | I.Fpu1 (op, fd, fs) ->
    let a = ctx.fregs.(fs) in
    let v =
      match op with
      | I.Fneg -> -.a
      | I.Fabs -> Float.abs a
      | I.Fsqrt -> sqrt a
      | I.Fmov -> a
    in
    ctx.fregs.(fd) <- v;
    next ctx pc Done
  | I.Fcmp (op, rd, fs, ft) ->
    let a = ctx.fregs.(fs) and b = ctx.fregs.(ft) in
    let v =
      match op with I.Feq -> a = b | I.Flt -> a < b | I.Fle -> a <= b
    in
    w ctx rd (Bool.to_int v);
    next ctx pc Done
  | I.Cvt_i2f (fd, rs) ->
    ctx.fregs.(fd) <- float_of_int (r ctx rs);
    next ctx pc Done
  | I.Cvt_f2i (rd, fs) ->
    w ctx rd (int_of_float ctx.fregs.(fs));
    next ctx pc Done
  | I.Fli (fd, x) ->
    ctx.fregs.(fd) <- x;
    next ctx pc Done
  | I.Lw (rt, off, rs) -> load ctx pc ~dst:rt ~addr:(r ctx rs + off) ~ro:false
  | I.Lwro (rt, off, rs) -> load ctx pc ~dst:rt ~addr:(r ctx rs + off) ~ro:true
  | I.Flw (ft, off, rs) -> load ctx pc ~dst:(-1 - ft) ~addr:(r ctx rs + off) ~ro:false
  | I.Sw (rt, off, rs) ->
    store ctx pc ~addr:(r ctx rs + off) ~value:(V.int (r ctx rt)) ~nb:false
  | I.Swnb (rt, off, rs) ->
    store ctx pc ~addr:(r ctx rs + off) ~value:(V.int (r ctx rt)) ~nb:true
  | I.Fsw (ft, off, rs) ->
    store ctx pc ~addr:(r ctx rs + off) ~value:(V.flt ctx.fregs.(ft)) ~nb:false
  | I.Pref (off, rs) ->
    ctx.addr <- r ctx rs + off;
    next ctx pc Prefetch
  | I.Psm (rd, off, rs) ->
    ctx.dst <- rd;
    ctx.addr <- r ctx rs + off;
    ctx.inc <- r ctx rd;
    next ctx pc Psm
  | I.Br (op, rs, rt, _) ->
    let a = r ctx rs and b = r ctx rt in
    let taken = match op with I.Beq -> a = b | I.Bne -> a <> b in
    if taken then jump ctx pc tgt else next ctx pc Done
  | I.Brz (op, rs, _) ->
    let a = r ctx rs in
    let taken =
      match op with
      | I.Blez -> a <= 0
      | I.Bgtz -> a > 0
      | I.Bltz -> a < 0
      | I.Bgez -> a >= 0
      | I.Beqz -> a = 0
      | I.Bnez -> a <> 0
    in
    if taken then jump ctx pc tgt else next ctx pc Done
  | I.J _ -> jump ctx pc tgt
  | I.Jal _ ->
    w ctx Isa.Reg.ra (pc + 1);
    jump ctx pc tgt
  | I.Jr rs ->
    ctx.pc <- r ctx rs;
    Done
  | I.Spawn (rl, rh) -> next ctx pc (Spawn { lo = r ctx rl; hi = r ctx rh })
  | I.Join -> next ctx pc Join
  | I.Ps (rd, g) -> next ctx pc (Ps { dst = rd; g; inc = r ctx rd })
  | I.Chkid rd -> next ctx pc (Chkid { id = r ctx rd })
  | I.Mfg (rd, g) -> next ctx pc (Mfg { dst = rd; g })
  | I.Mtg (g, rs) -> next ctx pc (Mtg { g; src = r ctx rs })
  | I.Fence -> next ctx pc Fence
  | I.Sys (op, reg) ->
    ctx.pc <- pc + 1;
    let s =
      match op with
      | I.Print_int -> string_of_int (r ctx reg)
      | I.Print_float -> Printf.sprintf "%g" ctx.fregs.(reg)
      | I.Print_char -> String.make 1 (Char.chr (r ctx reg land 0xFF))
      | I.Print_str -> read_str (r ctx reg)
    in
    Output s
  | I.Halt -> next ctx pc Halt

let complete_load ctx dst v =
  if dst >= 0 then begin if dst <> 0 then ctx.regs.(dst) <- V.to_int v end
  else ctx.fregs.(-1 - dst) <- V.to_flt v
