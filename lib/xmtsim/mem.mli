(** The simulated shared memory: word-granularity cells holding typed
    values (transaction-level accuracy, §III-A).

    Two regions: the data/heap region growing up from the image's data
    base, and the Master TCU's stack region just below {!stack_top}.
    Cells are auto-zeroed; accesses outside both regions raise.  Both
    regions are allocated on first use: the data region at the image's
    size, the stack from a few words, each growing on the first write
    past its end. *)

type t

exception Fault of string

val stack_top : int
val stack_bytes : int

(** Create from a resolved image: the data region is [data_size] zeros
    with the image's [data_init] segments blitted in, in order. *)
val load : Isa.Program.image -> t

val read : t -> int -> Isa.Value.t
val write : t -> int -> Isa.Value.t -> unit

(** Atomic fetch-and-add for [psm]: returns the old value. *)
val fetch_add : t -> int -> int -> int

(** Read a NUL-terminated string of character codes. *)
val read_string : t -> int -> string

(** Words currently allocated in the data region (for bounds reporting). *)
val data_words : t -> int

(** Deep snapshot for checkpointing: a copy of the words in use. *)
val snapshot : t -> t

val restore : t -> t -> unit
