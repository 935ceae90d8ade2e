type alu_op = Add | Sub | And | Or | Xor | Nor | Slt | Sltu
type alu_imm_op = Addi | Andi | Ori | Xori | Slti
type sft_op = Sll | Srl | Sra
type mdu_op = Mul | Div | Rem
type fpu_op = Fadd | Fsub | Fmul | Fdiv
type fpu_un_op = Fneg | Fabs | Fsqrt | Fmov
type fcmp_op = Feq | Flt | Fle
type br_op = Beq | Bne
type brz_op = Blez | Bgtz | Bltz | Bgez | Beqz | Bnez
type sys_op = Print_int | Print_float | Print_char | Print_str
type label = string

type t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t
  | Alui of alu_imm_op * Reg.t * Reg.t * int
  | Li of Reg.t * int
  | La of Reg.t * label
  | Sft of sft_op * Reg.t * Reg.t * Reg.t
  | Sfti of sft_op * Reg.t * Reg.t * int
  | Mdu of mdu_op * Reg.t * Reg.t * Reg.t
  | Fpu of fpu_op * Reg.f * Reg.f * Reg.f
  | Fpu1 of fpu_un_op * Reg.f * Reg.f
  | Fcmp of fcmp_op * Reg.t * Reg.f * Reg.f
  | Cvt_i2f of Reg.f * Reg.t
  | Cvt_f2i of Reg.t * Reg.f
  | Fli of Reg.f * float
  | Lw of Reg.t * int * Reg.t
  | Lwro of Reg.t * int * Reg.t
  | Sw of Reg.t * int * Reg.t
  | Swnb of Reg.t * int * Reg.t
  | Flw of Reg.f * int * Reg.t
  | Fsw of Reg.f * int * Reg.t
  | Pref of int * Reg.t
  | Br of br_op * Reg.t * Reg.t * label
  | Brz of brz_op * Reg.t * label
  | J of label
  | Jal of label
  | Jr of Reg.t
  | Spawn of Reg.t * Reg.t
  | Join
  | Ps of Reg.t * Reg.g
  | Psm of Reg.t * int * Reg.t
  | Chkid of Reg.t
  | Mfg of Reg.t * Reg.g
  | Mtg of Reg.g * Reg.t
  | Fence
  | Sys of sys_op * int
  | Halt

type fu_class = FU_ALU | FU_BR | FU_SFT | FU_MDU | FU_FPU | FU_MEM | FU_PS | FU_CTRL

let fu_class_of = function
  | Alu _ | Alui _ | Li _ | La _ -> FU_ALU
  | Sft _ | Sfti _ -> FU_SFT
  | Mdu _ -> FU_MDU
  | Fpu _ | Fpu1 _ | Fcmp _ | Cvt_i2f _ | Cvt_f2i _ | Fli _ -> FU_FPU
  | Lw _ | Lwro _ | Sw _ | Swnb _ | Flw _ | Fsw _ | Pref _ | Psm _ -> FU_MEM
  | Br _ | Brz _ | J _ | Jal _ | Jr _ -> FU_BR
  | Ps _ -> FU_PS
  | Spawn _ | Join | Chkid _ | Mfg _ | Mtg _ | Fence | Sys _ | Halt -> FU_CTRL

let fu_class_name = function
  | FU_ALU -> "ALU"
  | FU_BR -> "BR"
  | FU_SFT -> "SFT"
  | FU_MDU -> "MDU"
  | FU_FPU -> "FPU"
  | FU_MEM -> "MEM"
  | FU_PS -> "PS"
  | FU_CTRL -> "CTRL"

let all_fu_classes =
  [ FU_ALU; FU_BR; FU_SFT; FU_MDU; FU_FPU; FU_MEM; FU_PS; FU_CTRL ]

let target = function
  | Br (_, _, _, l) | Brz (_, _, l) | J l | Jal l -> Some l
  | Alu _ | Alui _ | Li _ | La _ | Sft _ | Sfti _ | Mdu _ | Fpu _ | Fpu1 _
  | Fcmp _ | Cvt_i2f _ | Cvt_f2i _ | Fli _ | Lw _ | Lwro _ | Sw _ | Swnb _
  | Flw _ | Fsw _ | Pref _ | Jr _ | Spawn _ | Join | Ps _ | Psm _ | Chkid _
  | Mfg _ | Mtg _ | Fence | Sys _ | Halt ->
    None

let with_target i l =
  match i with
  | Br (op, a, b, _) -> Br (op, a, b, l)
  | Brz (op, a, _) -> Brz (op, a, l)
  | J _ -> J l
  | Jal _ -> Jal l
  | other -> other

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Nor -> "nor"
  | Slt -> "slt"
  | Sltu -> "sltu"

let alui_name = function
  | Addi -> "addi"
  | Andi -> "andi"
  | Ori -> "ori"
  | Xori -> "xori"
  | Slti -> "slti"

let sft_name = function Sll -> "sll" | Srl -> "srl" | Sra -> "sra"
let mdu_name = function Mul -> "mul" | Div -> "div" | Rem -> "rem"

let fpu_name = function
  | Fadd -> "add.s"
  | Fsub -> "sub.s"
  | Fmul -> "mul.s"
  | Fdiv -> "div.s"

let fpu1_name = function
  | Fneg -> "neg.s"
  | Fabs -> "abs.s"
  | Fsqrt -> "sqrt.s"
  | Fmov -> "mov.s"

let fcmp_name = function Feq -> "c.eq.s" | Flt -> "c.lt.s" | Fle -> "c.le.s"
let br_name = function Beq -> "beq" | Bne -> "bne"

let brz_name = function
  | Blez -> "blez"
  | Bgtz -> "bgtz"
  | Bltz -> "bltz"
  | Bgez -> "bgez"
  | Beqz -> "beqz"
  | Bnez -> "bnez"

let sys_name = function
  | Print_int -> "pint"
  | Print_float -> "pflt"
  | Print_char -> "pchr"
  | Print_str -> "pstr"

let r = Reg.name
let f = Reg.fname
let g = Reg.gname
let spf = Printf.sprintf

let to_string = function
  | Alu (op, rd, rs, rt) -> spf "%s %s, %s, %s" (alu_name op) (r rd) (r rs) (r rt)
  | Alui (op, rd, rs, imm) -> spf "%s %s, %s, %d" (alui_name op) (r rd) (r rs) imm
  | Li (rd, imm) -> spf "li %s, %d" (r rd) imm
  | La (rd, l) -> spf "la %s, %s" (r rd) l
  | Sft (op, rd, rs, rt) -> spf "%sv %s, %s, %s" (sft_name op) (r rd) (r rs) (r rt)
  | Sfti (op, rd, rs, imm) -> spf "%s %s, %s, %d" (sft_name op) (r rd) (r rs) imm
  | Mdu (op, rd, rs, rt) -> spf "%s %s, %s, %s" (mdu_name op) (r rd) (r rs) (r rt)
  | Fpu (op, fd, fs, ft) -> spf "%s %s, %s, %s" (fpu_name op) (f fd) (f fs) (f ft)
  | Fpu1 (op, fd, fs) -> spf "%s %s, %s" (fpu1_name op) (f fd) (f fs)
  | Fcmp (op, rd, fs, ft) -> spf "%s %s, %s, %s" (fcmp_name op) (r rd) (f fs) (f ft)
  | Cvt_i2f (fd, rs) -> spf "cvt.s.w %s, %s" (f fd) (r rs)
  | Cvt_f2i (rd, fs) -> spf "cvt.w.s %s, %s" (r rd) (f fs)
  | Fli (fd, x) -> spf "li.s %s, %h" (f fd) x
  | Lw (rt, off, rs) -> spf "lw %s, %d(%s)" (r rt) off (r rs)
  | Lwro (rt, off, rs) -> spf "lw.ro %s, %d(%s)" (r rt) off (r rs)
  | Sw (rt, off, rs) -> spf "sw %s, %d(%s)" (r rt) off (r rs)
  | Swnb (rt, off, rs) -> spf "sw.nb %s, %d(%s)" (r rt) off (r rs)
  | Flw (ft, off, rs) -> spf "l.s %s, %d(%s)" (f ft) off (r rs)
  | Fsw (ft, off, rs) -> spf "s.s %s, %d(%s)" (f ft) off (r rs)
  | Pref (off, rs) -> spf "pref %d(%s)" off (r rs)
  | Br (op, rs, rt, l) -> spf "%s %s, %s, %s" (br_name op) (r rs) (r rt) l
  | Brz (op, rs, l) -> spf "%s %s, %s" (brz_name op) (r rs) l
  | J l -> spf "j %s" l
  | Jal l -> spf "jal %s" l
  | Jr rs -> spf "jr %s" (r rs)
  | Spawn (rl, rh) -> spf "spawn %s, %s" (r rl) (r rh)
  | Join -> "join"
  | Ps (rd, gb) -> spf "ps %s, %s" (r rd) (g gb)
  | Psm (rd, off, rs) -> spf "psm %s, %d(%s)" (r rd) off (r rs)
  | Chkid rd -> spf "chkid %s" (r rd)
  | Mfg (rd, gb) -> spf "mfg %s, %s" (r rd) (g gb)
  | Mtg (gb, rs) -> spf "mtg %s, %s" (g gb) (r rs)
  | Fence -> "fence"
  | Sys (op, reg) ->
    let operand = match op with Print_float -> f reg | _ -> r reg in
    spf "%s %s" (sys_name op) operand
  | Halt -> "halt"

let pp ppf i = Format.pp_print_string ppf (to_string i)
