(** Three-address intermediate representation of the core-pass.

    The IR is deliberately {e serial} — it has no notion of concurrency
    beyond the [Ispawn]/[Ijoin] bracket markers, mirroring how the paper's
    core-pass (GCC) sees a spawn block as a plain sequential region
    (§IV-B, Fig. 8b).  Virtual registers are unlimited until register
    allocation; integer and float registers form separate classes. *)

type vreg = int
type vfreg = int
type label = string

(** Comparison relations; materialized by {!Codegen} using slt/xori etc. *)
type relop = Req | Rne | Rlt | Rle | Rgt | Rge

type binop =
  | Badd | Bsub | Bmul | Bdiv | Brem
  | Band | Bor | Bxor | Bnor
  | Bsll | Bsrl | Bsra

type fbinop = FBadd | FBsub | FBmul | FBdiv
type funop = FUneg | FUabs | FUsqrt | FUmov
type operand = Oreg of vreg | Oimm of int

(** Load/store flavours selected by the XMT-specific passes (§IV-C). *)
type ld_mode = Ld_normal | Ld_ro

type st_mode = St_blocking | St_nb

type arg = Aint of operand | Aflt of vfreg
type ret_dst = Dint of vreg | Dflt of vfreg | Dnone

type sys_op = Isa.Instr.sys_op

type instr =
  | Ilabel of label
  | Imov of vreg * operand
  | Ibin of binop * vreg * operand * operand
  | Iset of relop * vreg * operand * operand  (** rd <- (a REL b) ? 1 : 0 *)
  | Ifbin of fbinop * vfreg * vfreg * vfreg
  | Ifun of funop * vfreg * vfreg
  | Ifli of vfreg * float
  | Ifcmp of relop * vreg * vfreg * vfreg
  | Icvt_i2f of vfreg * operand
  | Icvt_f2i of vreg * vfreg
  | Ila of vreg * string
  | Ild of ld_mode * vreg * vreg * int  (** rd <- mem[base + off] *)
  | Ist of st_mode * vreg * vreg * int  (** mem[base + off] <- rs *)
  | Ifld of vfreg * vreg * int
  | Ifst of vfreg * vreg * int
  | Ipref of vreg * int
  | Icall of ret_dst * string * arg list
  | Ijmp of label
  | Icjump of relop * operand * operand * label  (** branch if true, else fall *)
  | Iret of arg option
  | Ispawn of operand * operand  (** low, high: enter parallel mode *)
  | Ijoin
  | Ips of vreg * Isa.Reg.g  (** rd <-> $g (atomic fetch-add) *)
  | Ipsm of vreg * vreg * int  (** rd <-> mem[base+off] (atomic fetch-add) *)
  | Ichkid of vreg
  | Imfg of vreg * Isa.Reg.g
  | Imtg of Isa.Reg.g * operand
  | Ifence
  | Isys of sys_op * arg
  | Iloc of int
      (** debug marker: following instructions come from this source line.
          Emits no code; transparent to every optimization. *)

type func = {
  name : string;
  mutable body : instr list;
  mutable next_vreg : int;
  mutable next_vfreg : int;
  (* Parameter setup: which vregs receive the incoming argument registers. *)
  params_int : vreg list;
  params_flt : vfreg list;
  is_spawn_func : bool;  (** outlined spawn function: contains Ispawn/Ijoin *)
  ret_float : bool;
  mutable local_words : int;  (** frame words used by addressable locals *)
  mutable makes_calls : bool;
}

(** Precolored virtual registers: v0 is the stack pointer, v1 the frame
    pointer.  Allocation of fresh vregs starts at {!first_alloc_vreg}. *)
let vreg_sp : vreg = 0

let vreg_fp : vreg = 1
let first_alloc_vreg = 2

(** Fixed bytes reserved at the top of every frame for $ra, the caller's
    $fp and callee-saved registers ($s0-$s7, $f20-$f31); addressable locals
    start below it. *)
let frame_reserve_bytes = 96

type program = {
  funcs : func list;
  data : Isa.Program.data_item list;
  (* ps-base global -> global register index *)
  ps_regs : (string * Isa.Reg.g * int) list;  (** name, $g index, initial value *)
}

(* ------------------------------------------------------------------ *)
(* Def/use sets, needed by liveness and DCE.  Returned as (int defs,
   int uses, float defs, float uses). *)

let ops_uses ops =
  List.filter_map (function Oreg r -> Some r | Oimm _ -> None) ops

let defs_uses = function
  | Ilabel _ | Ijmp _ | Ifence | Iloc _ -> ([], [], [], [])
  | Imov (d, s) -> ([ d ], ops_uses [ s ], [], [])
  | Ibin (_, d, a, b) -> ([ d ], ops_uses [ a; b ], [], [])
  | Iset (_, d, a, b) -> ([ d ], ops_uses [ a; b ], [], [])
  | Ifbin (_, d, a, b) -> ([], [], [ d ], [ a; b ])
  | Ifun (_, d, a) -> ([], [], [ d ], [ a ])
  | Ifli (d, _) -> ([], [], [ d ], [])
  | Ifcmp (_, d, a, b) -> ([ d ], [], [], [ a; b ])
  | Icvt_i2f (d, s) -> ([], ops_uses [ s ], [ d ], [])
  | Icvt_f2i (d, s) -> ([ d ], [], [], [ s ])
  | Ila (d, _) -> ([ d ], [], [], [])
  | Ild (_, d, b, _) -> ([ d ], [ b ], [], [])
  | Ist (_, s, b, _) -> ([], [ s; b ], [], [])
  | Ifld (d, b, _) -> ([], [ b ], [ d ], [])
  | Ifst (s, b, _) -> ([], [ b ], [], [ s ])
  | Ipref (b, _) -> ([], [ b ], [], [])
  | Icall (dst, _, args) ->
    let iu, fu =
      List.fold_left
        (fun (iu, fu) -> function
          | Aint (Oreg r) -> (r :: iu, fu)
          | Aint (Oimm _) -> (iu, fu)
          | Aflt r -> (iu, r :: fu))
        ([], []) args
    in
    let id, fd =
      match dst with Dint r -> ([ r ], []) | Dflt r -> ([], [ r ]) | Dnone -> ([], [])
    in
    (id, iu, fd, fu)
  | Icjump (_, a, b, _) -> ([], ops_uses [ a; b ], [], [])
  | Iret (Some (Aint op)) -> ([], ops_uses [ op ], [], [])
  | Iret (Some (Aflt r)) -> ([], [], [], [ r ])
  | Iret None -> ([], [], [], [])
  | Ispawn (a, b) -> ([], ops_uses [ a; b ], [], [])
  | Ijoin -> ([], [], [], [])
  | Ips (r, _) -> ([ r ], [ r ], [], [])
  | Ipsm (r, b, _) -> ([ r ], [ r; b ], [], [])
  | Ichkid r -> ([], [ r ], [], [])
  | Imfg (d, _) -> ([ d ], [], [], [])
  | Imtg (_, s) -> ([], ops_uses [ s ], [], [])
  | Isys (_, Aint op) -> ([], ops_uses [ op ], [], [])
  | Isys (_, Aflt r) -> ([], [], [], [ r ])

(** Does this instruction have side effects that DCE must preserve? *)
let has_side_effect = function
  | Ist _ | Ifst _ | Ipref _ | Icall _ | Ispawn _ | Ijoin | Ips _ | Ipsm _
  | Ichkid _ | Imtg _ | Ifence | Isys _ | Iret _ | Ijmp _ | Icjump _ | Ilabel _ ->
    true
  | Imov _ | Ibin _ | Iset _ | Ifbin _ | Ifun _ | Ifli _ | Ifcmp _ | Icvt_i2f _
  | Icvt_f2i _ | Ila _ | Ild _ | Ifld _ | Imfg _ ->
    false
  (* Debug markers carry no defs, so DCE keeps them; listed as effectful
     for clarity. *)
  | Iloc _ -> true

(* Loads are pure w.r.t. DCE only outside parallel/volatile concerns; we
   treat them as removable when the destination is dead, which is safe
   because removing a load cannot change memory. *)

let relop_to_string = function
  | Req -> "==" | Rne -> "!=" | Rlt -> "<" | Rle -> "<=" | Rgt -> ">" | Rge -> ">="

let operand_to_string = function
  | Oreg r -> Printf.sprintf "v%d" r
  | Oimm i -> string_of_int i

let binop_to_string = function
  | Badd -> "add" | Bsub -> "sub" | Bmul -> "mul" | Bdiv -> "div" | Brem -> "rem"
  | Band -> "and" | Bor -> "or" | Bxor -> "xor" | Bnor -> "nor"
  | Bsll -> "sll" | Bsrl -> "srl" | Bsra -> "sra"

let to_string i =
  let sp = Printf.sprintf in
  let o = operand_to_string in
  let v r = sp "v%d" r in
  let f r = sp "fv%d" r in
  match i with
  | Ilabel l -> l ^ ":"
  | Imov (d, s) -> sp "  %s := %s" (v d) (o s)
  | Ibin (op, d, a, b) -> sp "  %s := %s %s, %s" (v d) (binop_to_string op) (o a) (o b)
  | Iset (r, d, a, b) -> sp "  %s := %s %s %s" (v d) (o a) (relop_to_string r) (o b)
  | Ifbin (op, d, a, b) ->
    let n = match op with FBadd -> "fadd" | FBsub -> "fsub" | FBmul -> "fmul" | FBdiv -> "fdiv" in
    sp "  %s := %s %s, %s" (f d) n (f a) (f b)
  | Ifun (op, d, a) ->
    let n = match op with FUneg -> "fneg" | FUabs -> "fabs" | FUsqrt -> "fsqrt" | FUmov -> "fmov" in
    sp "  %s := %s %s" (f d) n (f a)
  | Ifli (d, x) -> sp "  %s := %h" (f d) x
  | Ifcmp (r, d, a, b) -> sp "  %s := %s %s %s" (v d) (f a) (relop_to_string r) (f b)
  | Icvt_i2f (d, s) -> sp "  %s := i2f %s" (f d) (o s)
  | Icvt_f2i (d, s) -> sp "  %s := f2i %s" (v d) (f s)
  | Ila (d, l) -> sp "  %s := &%s" (v d) l
  | Ild (m, d, b, off) ->
    sp "  %s := load%s %d(%s)" (v d) (match m with Ld_ro -> ".ro" | Ld_normal -> "") off (v b)
  | Ist (m, s, b, off) ->
    sp "  store%s %s -> %d(%s)" (match m with St_nb -> ".nb" | St_blocking -> "") (v s) off (v b)
  | Ifld (d, b, off) -> sp "  %s := fload %d(%s)" (f d) off (v b)
  | Ifst (s, b, off) -> sp "  fstore %s -> %d(%s)" (f s) off (v b)
  | Ipref (b, off) -> sp "  pref %d(%s)" off (v b)
  | Icall (dst, name, args) ->
    let dsts = match dst with Dint r -> v r ^ " := " | Dflt r -> f r ^ " := " | Dnone -> "" in
    sp "  %scall %s(%s)" dsts name
      (String.concat ", "
         (List.map (function Aint op -> o op | Aflt r -> f r) args))
  | Ijmp l -> sp "  jmp %s" l
  | Icjump (r, a, b, l) -> sp "  if %s %s %s jmp %s" (o a) (relop_to_string r) (o b) l
  | Iret None -> "  ret"
  | Iret (Some (Aint op)) -> sp "  ret %s" (o op)
  | Iret (Some (Aflt r)) -> sp "  ret %s" (f r)
  | Ispawn (a, b) -> sp "  spawn %s, %s" (o a) (o b)
  | Ijoin -> "  join"
  | Ips (r, gr) -> sp "  ps %s, $g%d" (v r) gr
  | Ipsm (r, b, off) -> sp "  psm %s, %d(%s)" (v r) off (v b)
  | Ichkid r -> sp "  chkid %s" (v r)
  | Imfg (d, gr) -> sp "  %s := $g%d" (v d) gr
  | Imtg (gr, s) -> sp "  $g%d := %s" gr (o s)
  | Ifence -> "  fence"
  | Isys (op, a) ->
    sp "  sys.%s %s"
      (match op with
      | Isa.Instr.Print_int -> "pint"
      | Isa.Instr.Print_float -> "pflt"
      | Isa.Instr.Print_char -> "pchr"
      | Isa.Instr.Print_str -> "pstr")
      (match a with Aint op -> o op | Aflt r -> f r)
  | Iloc line -> sp "  .loc %d" line

let func_to_string fn =
  String.concat "\n" ((fn.name ^ ":") :: List.map to_string fn.body)
