(** Register files and calling conventions of the XMT ISA.

    Integer registers follow MIPS conventions ($zero, $v0..., $ra); every
    TCU and the Master TCU each have a private copy of all 32.  There are
    32 floating-point registers ($f0-$f31).  In addition the architecture
    has a small file of {e global} prefix-sum registers $g0-$g8 living in
    the global PS unit (paper Fig. 1); $g8 is reserved by the hardware as
    the spawn dispatch counter used to hand out virtual-thread IDs. *)

type t = int (** integer register index, 0..31 *)

type f = int (** float register index, 0..31 *)

type g = int (** global PS register index, 0..8 *)

val num_regs : int
val num_fregs : int
val num_globals : int

(** The global register used by the hardware to dispatch virtual-thread IDs
    during a spawn (compiler-emitted [ps $r, $g8]). *)
val g_spawn : g

val zero : t
val v0 : t
val v1 : t
val a0 : t
val a1 : t
val a2 : t
val a3 : t
val gp : t
val sp : t
val fp : t
val ra : t

(** Caller-saved integer temporaries available for allocation ($t0-$t9). *)
val temporaries : t list

(** Callee-saved registers ($s0-$s7). *)
val saved : t list

(** Argument registers in order. *)
val args : t list

(** Float registers for arguments ($f12-$f15). *)
val fargs : f list


val name : t -> string
val fname : f -> string
val gname : g -> string

(** Parse "$t0", "$8", "$ra"... *)
val of_string : string -> t option

val f_of_string : string -> f option
val g_of_string : string -> g option
