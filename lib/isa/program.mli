(** Symbolic assembly programs and resolved executable images.

    A {!t} is what the compiler emits and the post-pass rewrites: a list of
    text items (labels and instructions) plus a data section.  An {!image}
    is the loaded form the simulator executes: a flat instruction array with
    branch targets and data-label addresses pre-resolved, and the initial
    memory contents (the "memory map" role of paper Fig. 3) as the segments
    a program initializes, so [.space] costs nothing until it is loaded. *)

type item =
  | Label of string
  | Ins of Instr.t
  | Comment of string
  | Loc of { line : int; fn : string }
      (** debug marker: following instructions come from source [line] in
          function [fn]; line 0 = compiler-generated code *)

type data_payload =
  | Words of int list
  | Floats of float list
  | Space of int  (** n zero-initialized words *)
  | Asciiz of string  (** one char code per word, NUL-terminated *)

type data_item = { dlabel : string; payload : data_payload }
type t = { text : item list; data : data_item list }

val empty : t

(** Number of words a payload occupies. *)
val payload_words : data_payload -> int

(** Instructions only, labels dropped. *)
val instructions : t -> Instr.t list

(** The same program without [Loc] debug markers (for assembly output
    when debug info is not wanted; resolving the result loses the map). *)
val strip_locs : t -> t

type image = {
  instrs : Instr.t array;
  targets : int array;
      (** per-instruction resolved operand: branch/jump/jal target index, or
          byte address for [La], or [-1] *)
  code_labels : (string, int) Hashtbl.t;
  data_addr : (string, int) Hashtbl.t;  (** data label -> byte address *)
  data_size : int;
      (** words in the data segment: every data item, [.space] and appended
          memory-map labels included; at least 1 *)
  data_init : (int * Value.t array) list;
      (** the initialized words, as (word offset, values) segments applied
          in order over [data_size] zeros, later ones winning: the [.word],
          [.float] and [.asciiz] items in declaration order, then each
          memory-map array, then whatever a caller appends (the compiler's
          [__heap_ptr] word).  The memory map's arrays are shared, not
          copied: neither the image's segments nor the arrays passed to
          {!resolve} may be mutated afterwards. *)
  data_base : int;  (** byte address where the data segment starts *)
  entry : int;  (** instruction index of [__start], else [main], else 0 *)
  locs : (int * string) option array;
      (** per-instruction debug map: (source line, function name) from the
          nearest preceding [Loc] item, or [None] before the first one *)
}

(** Base byte address of the data segment in every image. *)
val data_base_addr : int

exception Resolve_error of string

(** Resolve labels and lay out data.  Raises {!Resolve_error} on duplicate
    or undefined labels.  [extra_data] appends additional initialized
    arrays (the linked memory-map inputs) after the program's own data.
    Runs in time linear in the text and the data items, not the data
    words. *)
val resolve : ?extra_data:(string * Value.t array) list -> t -> image

(** [initial_word img i] is data word [i] as loaded: the last segment
    of [data_init] covering it, else zero.  Raises [Invalid_argument]
    outside [0, data_size). *)
val initial_word : image -> int -> Value.t

(** Address of a data label in an image. *)
val address_of : image -> string -> int
