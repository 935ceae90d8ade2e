type options = {
  opt_level : int;
  prefetch : bool;
  prefetch_max_per_block : int;
  nbstore : bool;
  fences : bool;
  cluster : int;
  layout_opt : bool;
  postpass_fix : bool;
  outline : bool;
}

let default_options =
  {
    opt_level = 2;
    prefetch = true;
    prefetch_max_per_block = 8;
    nbstore = true;
    fences = true;
    cluster = 1;
    layout_opt = true;
    postpass_fix = true;
    outline = true;
  }

(** Per-pass instrumentation ([xmtcc --timings]): wall-clock spent in the
    pass and the IR size it saw before/after.  The size unit depends on
    the layer the pass works at — source bytes for the pre-pass, IR
    instructions for the core-pass, emitted instructions for codegen and
    the post-pass; [pt_unit] names it.  A negative [pt_size_before] means
    the pass changed representations and has no comparable input size. *)
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
  relocated_blocks : int;
  outlined_source : string;
  timings : pass_timing list;  (** in pass order *)
  typed : Xmtc.Tast.program;  (** typed AST after the pre-pass *)
  ir : Ir.program;  (** final IR, after every core pass *)
}

exception Compile_error of string

let wrap f =
  try f () with
  | Xmtc.Lexer.Lex_error { line; msg } ->
    raise (Compile_error (Printf.sprintf "lex error at line %d: %s" line msg))
  | Xmtc.Parser.Parse_error { line; msg } ->
    raise (Compile_error (Printf.sprintf "parse error at line %d: %s" line msg))
  | Xmtc.Typecheck.Error { line; msg } ->
    raise (Compile_error (Printf.sprintf "type error at line %d: %s" line msg))
  | Lower.Error msg -> raise (Compile_error ("lowering: " ^ msg))
  | Regalloc.Spill_error msg -> raise (Compile_error msg)
  | Codegen.Error msg -> raise (Compile_error ("codegen: " ^ msg))
  | Postpass.Verify_error msg -> raise (Compile_error ("post-pass: " ^ msg))

let ir_size ir = List.fold_left (fun acc fn -> acc + List.length fn.Ir.body) 0 ir.Ir.funcs
let src_size tprog = String.length (Xmtc.Pretty.program_to_string tprog)
let prog_size p = List.length (Isa.Program.instructions p)

let compile ?(options = default_options) src : output =
  wrap (fun () ->
      let timings = ref [] in
      (* host-time (Obs.Clock) + size-delta instrumentation around each pass *)
      let timed pass ~unit_ ~before ~after f =
        let r, secs = Obs.Clock.wall f in
        let ms = secs *. 1000.0 in
        timings :=
          { pt_pass = pass; pt_ms = ms; pt_size_before = before;
            pt_size_after = after r; pt_unit = unit_ }
          :: !timings;
        r
      in
      (* front end *)
      let tprog =
        timed "frontend" ~unit_:"bytes" ~before:(String.length src) ~after:src_size
          (fun () -> Xmtc.Typecheck.program_of_source src)
      in
      (* pre-pass: source-to-source *)
      let tprog =
        timed "cluster" ~unit_:"bytes" ~before:(src_size tprog) ~after:src_size
          (fun () -> Cluster.run ~factor:options.cluster tprog)
      in
      let tprog =
        timed "outline" ~unit_:"bytes" ~before:(src_size tprog) ~after:src_size
          (fun () -> if options.outline then Outline.run tprog else tprog)
      in
      let outlined_source = Xmtc.Pretty.program_to_string tprog in
      (* core-pass: the per-function passes are independent, so running
         each pass over all functions keeps per-function semantics while
         giving one timing entry per pass *)
      let ir =
        timed "lower" ~unit_:"instrs" ~before:(-1) ~after:ir_size (fun () ->
            Lower.run tprog)
      in
      let on_ir pass f =
        ignore
          (timed pass ~unit_:"instrs" ~before:(ir_size ir)
             ~after:(fun () -> ir_size ir)
             (fun () -> List.iter f ir.Ir.funcs))
      in
      on_ir "opt" (fun fn -> Opt.run ~level:options.opt_level fn);
      on_ir "memfence" (fun fn ->
          Memfence.run ~nbstore:options.nbstore ~fences:options.fences fn);
      if options.prefetch then
        on_ir "prefetch" (fun fn ->
            Prefetch.run ~max_per_block:options.prefetch_max_per_block fn);
      let allocs =
        timed "regalloc" ~unit_:"instrs" ~before:(ir_size ir)
          ~after:(fun _ -> ir_size ir)
          (fun () -> List.map (fun fn -> (fn, Regalloc.run fn)) ir.Ir.funcs)
      in
      let program =
        timed "codegen" ~unit_:"instrs" ~before:(ir_size ir) ~after:prog_size
          (fun () -> Codegen.gen_program ~layout_opt:options.layout_opt ir allocs)
      in
      (* post-pass: re-read the emitted assembly, repair and verify *)
      let program, relocated_blocks =
        timed "postpass" ~unit_:"instrs" ~before:(prog_size program)
          ~after:(fun (p, _) -> prog_size p)
          (fun () ->
            let asm_text0 = Isa.Asm.print program in
            let reread = Isa.Asm.parse asm_text0 in
            let program, relocated_blocks =
              if options.postpass_fix then Postpass.run reread else (reread, 0)
            in
            if options.postpass_fix then Postpass.verify program;
            (program, relocated_blocks))
      in
      (* [program] keeps the .loc debug markers (they feed the image's
         source map); [asm_text] is the user-facing listing and stays
         loc-free so default output is unchanged — [xmtcc -g] prints the
         debug-bearing form from [program] instead *)
      let asm_text = Isa.Asm.print (Isa.Program.strip_locs program) in
      { program; asm_text; relocated_blocks; outlined_source;
        timings = List.rev !timings; typed = tprog; ir })

let timings_to_string timings =
  let b = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "%-10s %9s  %s\n" "pass" "wall" "size";
  let total = ref 0.0 in
  List.iter
    (fun pt ->
      total := !total +. pt.pt_ms;
      let delta = pt.pt_size_after - pt.pt_size_before in
      if pt.pt_size_before < 0 then
        pf "%-10s %7.2fms  -> %d %s\n" pt.pt_pass pt.pt_ms pt.pt_size_after pt.pt_unit
      else
        pf "%-10s %7.2fms  %d -> %d %s (%+d)\n" pt.pt_pass pt.pt_ms
          pt.pt_size_before pt.pt_size_after pt.pt_unit delta)
    timings;
  pf "%-10s %7.2fms\n" "total" !total;
  Buffer.contents b

(* __heap_ptr starts at the first byte after the data segment: one more
   segment, applied last *)
let place_heap_ptr (image : Isa.Program.image) =
  match Hashtbl.find_opt image.data_addr "__heap_ptr" with
  | Some addr ->
    let heap_start = image.data_base + (4 * image.data_size) in
    { image with
      data_init =
        image.data_init @ [ ((addr - image.data_base) / 4, [| Isa.Value.int heap_start |]) ] }
  | None -> image

let compile_to_image ?options ?(memmap = []) src =
  let out = compile ?options src in
  (out, place_heap_ptr (Isa.Program.resolve ~extra_data:memmap out.program))
