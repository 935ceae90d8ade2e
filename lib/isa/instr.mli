(** The XMT assembly instruction set.

    A MIPS-flavoured core plus the XMT extensions described in the paper:
    [spawn]/[join] (§II-A), prefix-sum to global registers [ps] and to
    memory [psm] (§II-A), [chkid] virtual-thread validation (§IV-D),
    read-only-cache loads [lw.ro], non-blocking stores [sw.nb], software
    prefetch [pref] (§IV-C) and the memory [fence] the compiler inserts
    before prefix-sums (§IV-A).

    Mirroring XMTSim's [Instruction] class API, every instruction reports
    the functional-unit class that executes it ({!fu_class}); adding an
    instruction means adding a variant here plus its semantics in the
    functional model — the two-step recipe of §III-A. *)

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
  | Alu of alu_op * Reg.t * Reg.t * Reg.t  (** rd <- rs OP rt *)
  | Alui of alu_imm_op * Reg.t * Reg.t * int  (** rd <- rs OP imm *)
  | Li of Reg.t * int
  | La of Reg.t * label  (** load address of label *)
  | Sft of sft_op * Reg.t * Reg.t * Reg.t  (** variable shift *)
  | Sfti of sft_op * Reg.t * Reg.t * int
  | Mdu of mdu_op * Reg.t * Reg.t * Reg.t
  | Fpu of fpu_op * Reg.f * Reg.f * Reg.f
  | Fpu1 of fpu_un_op * Reg.f * Reg.f
  | Fcmp of fcmp_op * Reg.t * Reg.f * Reg.f
  | Cvt_i2f of Reg.f * Reg.t
  | Cvt_f2i of Reg.t * Reg.f
  | Fli of Reg.f * float  (** float immediate load *)
  | Lw of Reg.t * int * Reg.t  (** rt <- mem[rs + off] *)
  | Lwro of Reg.t * int * Reg.t  (** load via cluster read-only cache *)
  | Sw of Reg.t * int * Reg.t  (** mem[rs + off] <- rt (blocking) *)
  | Swnb of Reg.t * int * Reg.t  (** non-blocking store *)
  | Flw of Reg.f * int * Reg.t
  | Fsw of Reg.f * int * Reg.t
  | Pref of int * Reg.t  (** prefetch mem[rs + off] into the TCU buffer *)
  | Br of br_op * Reg.t * Reg.t * label
  | Brz of brz_op * Reg.t * label
  | J of label
  | Jal of label
  | Jr of Reg.t
  | Spawn of Reg.t * Reg.t  (** spawn rlow, rhigh *)
  | Join
  | Ps of Reg.t * Reg.g  (** atomic: rd <-> $g += rd; rd value must be 0/1 *)
  | Psm of Reg.t * int * Reg.t  (** atomic: rd <-> mem[rs+off] += rd *)
  | Chkid of Reg.t  (** terminate virtual thread if rd > spawn bound *)
  | Mfg of Reg.t * Reg.g  (** serial-mode read of a global PS register *)
  | Mtg of Reg.g * Reg.t  (** serial-mode write of a global PS register *)
  | Fence  (** wait until this TCU's pending stores are acknowledged *)
  | Sys of sys_op * int  (** print syscall; operand is a reg index *)
  | Halt

(** Functional-unit classes of Fig. 1.  [MEM] ops go through the LS unit,
    interconnect and shared caches; [PS] through the global prefix-sum unit;
    [CTRL] is handled inside the TCU / spawn-join unit. *)
type fu_class = FU_ALU | FU_BR | FU_SFT | FU_MDU | FU_FPU | FU_MEM | FU_PS | FU_CTRL

val fu_class_of : t -> fu_class
val fu_class_name : fu_class -> string
val all_fu_classes : fu_class list

(** Branch/jump target label, if any. *)
val target : t -> label option

(** Replace the target label (identity for non-control instructions). *)
val with_target : t -> label -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
