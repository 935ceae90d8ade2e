(** The compiler driver: XMTC source to verified XMT assembly.

    Pipeline (paper §IV): pre-pass (clustering §IV-C, then outlining
    Fig. 8) on the typed AST; core-pass (lowering, serial optimization,
    XMT passes: prefetch §IV-C, non-blocking stores and fences §IV-A,
    register allocation §IV-D, code generation with layout optimization);
    post-pass (Fig. 9 repair + verification).

    Every stage can be toggled to reproduce the paper's ablations and
    failure demonstrations. *)

type options = {
  opt_level : int;  (** 0 none, 1 fold/copyprop/dce, 2 + local CSE *)
  prefetch : bool;
  prefetch_max_per_block : int;
  nbstore : bool;
  fences : bool;  (** disable to reproduce the Fig. 7 violation *)
  cluster : int;  (** thread-clustering factor; 1 = off *)
  layout_opt : bool;  (** GCC-style block reordering (creates Fig. 9a) *)
  postpass_fix : bool;  (** relocate misplaced blocks (Fig. 9b) *)
  outline : bool;  (** pre-pass outlining (disable to expose Fig. 8 hazard) *)
}

val default_options : options

(** Per-pass instrumentation ([xmtcc --timings]): wall-clock milliseconds
    and the size of the representation before/after the pass.  [pt_unit]
    names the size unit (source bytes, IR instructions, emitted
    instructions); [pt_size_before < 0] means the pass changed
    representations and has no comparable input size. *)
type pass_timing = {
  pt_pass : string;
  pt_ms : float;
  pt_size_before : int;
  pt_size_after : int;
  pt_unit : string;
}

type output = {
  program : Isa.Program.t;
  asm_text : string;
  relocated_blocks : int;  (** blocks the post-pass moved back (Fig. 9) *)
  outlined_source : string;  (** XMTC source after the pre-pass *)
  timings : pass_timing list;  (** in pass order *)
  typed : Xmtc.Tast.program;
      (** typed AST after the pre-pass (clustered, outlined) — the
          representation the static race checker ({!Racecheck}) walks *)
  ir : Ir.program;
      (** final IR after every core pass, fences and non-blocking stores
          included — what the fence checker diffs against *)
}

(** Render [output.timings] as the [--timings] table. *)
val timings_to_string : pass_timing list -> string

exception Compile_error of string

(** Compile XMTC source text. *)
val compile : ?options:options -> string -> output

(** The image with its [__heap_ptr] word, if it has one, initialized to
    the first byte after the data segment (a segment appended to
    [data_init]). *)
val place_heap_ptr : Isa.Program.image -> Isa.Program.image

(** Compile and resolve with memory-map inputs; also places the heap
    pointer.  The resulting image is ready for simulation. *)
val compile_to_image :
  ?options:options -> ?memmap:Isa.Memmap.t -> string -> output * Isa.Program.image
