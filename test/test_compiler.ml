(** Tests for the compiler passes (paper §IV): outlining, clustering, the
    serial optimizer, the XMT memory/prefetch passes, register allocation
    and the post-pass. *)

module D = Compiler.Driver
module T = Xmtc.Tast

let opts = D.default_options

let compile ?(options = opts) src = D.compile ~options src

let has_instr pred (out : D.output) =
  List.exists
    (function Isa.Program.Ins i -> pred i | _ -> false)
    out.D.program.Isa.Program.text

(* ------------------------------------------------------------------ *)
(* Outlining (Fig. 8) *)

let outline_extracts_function () =
  let p =
    Xmtc.Typecheck.program_of_source
      "int A[4]; int main() { spawn(0,3) { A[$] = $; } return 0; }"
  in
  let p = Compiler.Outline.run p in
  let names = List.map (fun (f : T.func) -> f.fname) p.T.funcs in
  Alcotest.(check (list string)) "functions" [ "main"; "__outl_sp_0" ] names;
  let outl = List.find (fun (f : T.func) -> f.fname = "__outl_sp_0") p.T.funcs in
  Tu.check_bool "marked" true outl.T.fis_outlined_spawn;
  (* main no longer contains a spawn *)
  let main = List.find (fun (f : T.func) -> f.fname = "main") p.T.funcs in
  let spawns = ref 0 in
  T.iter_spawns (fun _ -> incr spawns) main.T.fbody;
  Tu.check_int "no spawn left in main" 0 !spawns

let outline_capture_classes () =
  (* [n] read-only -> by value; [found] written -> by reference (Fig. 8c) *)
  let p =
    Xmtc.Typecheck.program_of_source
      {|
int A[8];
int main() {
  int n = 7;
  int found = 0;
  spawn(0, n) { if (A[$] != 0) found = 1; }
  return found;
}
|}
  in
  let p = Compiler.Outline.run p in
  let outl = List.find (fun (f : T.func) -> f.T.fis_outlined_spawn) p.T.funcs in
  let param_types =
    List.map (fun (v : T.var) -> (v.vname, Xmtc.Types.string_of_ty v.vty))
      outl.T.fparams
  in
  Alcotest.(check (list (pair string string)))
    "params" [ ("found", "int *"); ("n", "int") ]
    (List.sort compare param_types)

let outline_no_globals_captured () =
  let p =
    Xmtc.Typecheck.program_of_source
      "int A[4]; int g; int main() { spawn(0,3) { A[$] = g; } return 0; }"
  in
  let p = Compiler.Outline.run p in
  let outl = List.find (fun (f : T.func) -> f.T.fis_outlined_spawn) p.T.funcs in
  Tu.check_int "globals stay global" 0 (List.length outl.T.fparams)

let outline_pretty_is_source_to_source () =
  let p =
    Xmtc.Typecheck.program_of_source
      "int A[4]; int main() { int c = 3; spawn(0,3) { A[$] = c; } return 0; }"
  in
  let p = Compiler.Outline.run p in
  let printed = Xmtc.Pretty.program_to_string p in
  (* the outlined program is valid XMTC again *)
  (match Xmtc.Typecheck.program_of_source printed with
  | _ -> ()
  | exception e ->
    Alcotest.failf "outlined source invalid: %s\n%s" (Printexc.to_string e) printed);
  Tu.check_bool "call to outlined fn in source" true
    (String.length printed > 0
    &&
    let re = "__outl_sp_0" in
    let rec find i =
      if i + String.length re > String.length printed then false
      else if String.sub printed i (String.length re) = re then true
      else find (i + 1)
    in
    find 0)

let outline_ps_increment_by_ref () =
  (* a captured, written ps increment must round-trip through a temp *)
  let src =
    {|
int base = 0;
int main() {
  int inc = 1;
  spawn(0, 3) { ps(inc, base); }
  return inc;
}
|}
  in
  (* must compile and run: inc ends up holding one of the ps results *)
  let out = Core.Toolchain.exec ~config:Xmtsim.Config.tiny src in
  (* base goes 0,1,2,3 -> final inc is the last thread's old value; any of
     0..3 is legal, and the program returns it (not printed); just check
     it ran *)
  Tu.check_int "ran" 0 (String.length out.Core.Toolchain.output)

(* ------------------------------------------------------------------ *)
(* Clustering (§IV-C) *)

let clustering_preserves_semantics () =
  let a = Core.Workloads.sparse_array ~seed:11 ~n:50 ~density:30 in
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let src = Core.Kernels.compaction ~n:50 in
  let expected = string_of_int (Core.Reference.count_nonzero a) in
  List.iter
    (fun factor ->
      let options = { opts with D.cluster = factor } in
      Tu.expect_output ~options ~memmap
        (Printf.sprintf "clustered x%d" factor)
        expected src)
    [ 1; 2; 4; 8; 16 ]

let clustering_reduces_virtual_threads () =
  let src = Core.Kernels.vecadd ~n:64 in
  let run factor =
    let compiled =
      Core.Toolchain.compile ~options:{ opts with D.cluster = factor } src
    in
    let r = Core.Toolchain.run_cycle ~config:Xmtsim.Config.tiny compiled in
    r.Core.Toolchain.stats.Xmtsim.Stats.virtual_threads
  in
  Tu.check_int "unclustered" 64 (run 1);
  Tu.check_int "factor 4" 16 (run 4);
  Tu.check_int "factor 16" 4 (run 16)

(* ------------------------------------------------------------------ *)
(* Serial optimizer *)

let optimizer_preserves_output () =
  let a = Core.Workloads.random_array ~seed:3 ~n:40 ~bound:100 in
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let src = Core.Kernels.reduce_psm ~n:40 in
  let expected = string_of_int (Core.Reference.sum a) in
  List.iter
    (fun lvl ->
      Tu.expect_output ~options:{ opts with D.opt_level = lvl } ~memmap
        (Printf.sprintf "O%d" lvl) expected src)
    [ 0; 1; 2 ]

let optimizer_shrinks_code () =
  let src =
    {|
int A[4];
int main() {
  int x = 2 * 3 + 4;
  int unused = 99;
  A[0] = x;
  A[1] = x;
  return A[0];
}
|}
  in
  let count lvl =
    let out = compile ~options:{ opts with D.opt_level = lvl } src in
    List.length (Isa.Program.instructions out.D.program)
  in
  Tu.check_bool "O2 <= O0" true (count 2 < count 0)

let constant_folding_works () =
  (* at O2 the constant branch disappears *)
  let src = "int main() { if (1 < 2) return 7; return 8; }" in
  let out = compile src in
  Tu.check_bool "no branch left" false
    (has_instr (function Isa.Instr.Br _ | Isa.Instr.Brz _ -> true | _ -> false) out)

(* ------------------------------------------------------------------ *)
(* XMT passes *)

let fences_before_prefix_sums () =
  let src = Core.Kernels.compaction ~n:8 in
  let out = compile src in
  (* every ps in the text is preceded by a fence *)
  let instrs =
    List.filter_map
      (function Isa.Program.Ins i -> Some i | _ -> None)
      out.D.program.Isa.Program.text
  in
  let rec scan prev = function
    | [] -> ()
    | Isa.Instr.Ps _ :: _ when prev <> Some Isa.Instr.Fence ->
      Alcotest.fail "ps without preceding fence"
    | i :: rest -> scan (Some i) rest
  in
  scan None instrs;
  let out_nofence = compile ~options:{ opts with D.fences = false } src in
  Tu.check_bool "no fences when disabled" false
    (has_instr (function Isa.Instr.Fence -> true | _ -> false) out_nofence)

let nbstore_in_parallel_only () =
  let src =
    "int A[8]; int main() { A[0] = 1; spawn(0,7) { A[$] = $; } return 0; }"
  in
  let out = compile src in
  Tu.check_bool "has sw.nb" true
    (has_instr (function Isa.Instr.Swnb _ -> true | _ -> false) out);
  let out2 = compile ~options:{ opts with D.nbstore = false } src in
  Tu.check_bool "no sw.nb when disabled" false
    (has_instr (function Isa.Instr.Swnb _ -> true | _ -> false) out2)

let prefetch_inserted () =
  let src = Core.Kernels.par_mem ~threads:8 ~iters:4 ~n:64 in
  let out = compile src in
  Tu.check_bool "has pref" true
    (has_instr (function Isa.Instr.Pref _ -> true | _ -> false) out);
  let out2 = compile ~options:{ opts with D.prefetch = false } src in
  Tu.check_bool "no pref when disabled" false
    (has_instr (function Isa.Instr.Pref _ -> true | _ -> false) out2)

let prefetch_preserves_results () =
  let a = Core.Workloads.random_array ~seed:9 ~n:64 ~bound:50 in
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let src = Core.Kernels.reduce_tree ~n:64 in
  let expected = string_of_int (Core.Reference.sum a) in
  Tu.expect_output ~memmap "prefetch on" expected src;
  Tu.expect_output ~options:{ opts with D.prefetch = false } ~memmap
    "prefetch off" expected src

(* ------------------------------------------------------------------ *)
(* Register allocation *)

let spill_error_in_parallel_code () =
  (* enough simultaneously-live thread-locals to overflow the register
     file must produce the paper's register spill error (§IV-D) *)
  let decls =
    String.concat ""
      (List.init 30 (fun i -> Printf.sprintf "int v%d = A[$ + %d];" i i))
  in
  let uses =
    String.concat " + " (List.init 30 (fun i -> Printf.sprintf "v%d" i))
  in
  let src =
    Printf.sprintf
      "int A[64]; int B[64]; int main() { spawn(0, 31) { %s B[$] = %s; } \
       return 0; }"
      decls uses
  in
  match D.compile ~options:opts src with
  | exception D.Compile_error msg ->
    Tu.check_bool "mentions spill" true
      (let re = "spill" in
       let rec find i =
         if i + String.length re > String.length msg then false
         else if String.sub msg i (String.length re) = re then true
         else find (i + 1)
       in
       find 0)
  | _ -> Alcotest.fail "expected register spill error"

let spill_ok_in_serial_code () =
  (* the same pressure in serial code spills to the stack and runs *)
  let decls =
    String.concat ""
      (List.init 30 (fun i -> Printf.sprintf "int v%d = A[%d] + %d;" i i i))
  in
  let uses = String.concat " + " (List.init 30 (fun i -> Printf.sprintf "v%d" i)) in
  let a = Array.init 64 (fun i -> i) in
  let src =
    Printf.sprintf "int A[64]; int main() { %s print_int(%s); return 0; }" decls uses
  in
  let expected =
    string_of_int (List.fold_left ( + ) 0 (List.init 30 (fun i -> a.(i) + i)))
  in
  Tu.expect_output ~memmap:(Isa.Memmap.of_ints [ ("A", a) ]) "serial spill"
    expected src

(* ------------------------------------------------------------------ *)
(* Layout + post-pass (Fig. 9) *)

let fig9_block_sunk_and_repaired () =
  let src =
    {|
int A[32];
int B[32];
int main(void) {
  spawn(0, 31) {
    int v = A[$];
    if (v > 50) { B[$] = v * 3; } else { B[$] = v + 1; }
  }
  return 0;
}
|}
  in
  let out = compile src in
  Tu.check_bool "post-pass relocated >= 1 block" true (out.D.relocated_blocks >= 1);
  (* verification passes on the fixed program *)
  Compiler.Postpass.verify out.D.program;
  (* without the fix the program must fail verification *)
  let out2 = compile ~options:{ opts with D.postpass_fix = false } src in
  match Compiler.Postpass.verify out2.D.program with
  | exception Compiler.Postpass.Verify_error _ -> ()
  | _ -> Alcotest.fail "expected Fig. 9 verification failure"

let fig9_fix_preserves_semantics () =
  let a = Core.Workloads.random_array ~seed:21 ~n:32 ~bound:100 in
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let src =
    {|
int A[32];
int B[32];
int total = 0;
int main(void) {
  int i;
  spawn(0, 31) {
    int v = A[$];
    if (v > 50) { B[$] = v * 3; } else { B[$] = v + 1; }
  }
  for (i = 0; i < 32; i++) total = total + B[i];
  print_int(total);
  return 0;
}
|}
  in
  let expected =
    string_of_int
      (Array.fold_left (fun acc v -> acc + (if v > 50 then v * 3 else v + 1)) 0 a)
  in
  Tu.expect_output ~memmap "fig9 semantics" expected src;
  (* the no-layout-optimization path agrees too *)
  Tu.expect_output ~options:{ opts with D.layout_opt = false } ~memmap
    "no layout opt" expected src

let postpass_rejects_jal_in_region () =
  let asm =
    {|
main:
  li $t0, 0
  li $t1, 3
  spawn $t0, $t1
Ld:
  li $t2, 1
  ps $t2, $g8
  chkid $t2
  jal helper
  j Ld
  join
  jr $ra
helper:
  jr $ra
|}
  in
  match Compiler.Postpass.verify (Isa.Asm.parse asm) with
  | exception Compiler.Postpass.Verify_error _ -> ()
  | _ -> Alcotest.fail "expected jal-in-region error"

let postpass_rejects_unbalanced_spawn () =
  let asm = "main: li $t0, 0\n li $t1, 1\n spawn $t0, $t1\n halt" in
  match Compiler.Postpass.verify (Isa.Asm.parse asm) with
  | exception Compiler.Postpass.Verify_error _ -> ()
  | _ -> Alcotest.fail "expected unbalanced spawn error"

let postpass_relocation_matches_fig9 () =
  (* hand-build the Fig. 9a situation and check the 9b repair shape *)
  let asm =
    {|
outl:
  li $t0, 0
  li $t1, 3
  spawn $t0, $t1
BB1:
  li $t2, 1
  ps $t2, $g8
  chkid $t2
  bne $t2, $0, BB2
  j BB1
  join
  jr $ra
BB2:
  sw $t2, 0($t3)
  j BB1
|}
  in
  let fixed, n = Compiler.Postpass.run (Isa.Asm.parse asm) in
  Tu.check_int "one block relocated" 1 n;
  Compiler.Postpass.verify fixed;
  (* BB2 now sits before the join *)
  let text = Isa.Asm.print fixed in
  let idx_of sub =
    let rec find i =
      if i + String.length sub > String.length text then -1
      else if String.sub text i (String.length sub) = sub then i
      else find (i + 1)
    in
    find 0
  in
  Tu.check_bool "BB2 before join" true (idx_of "BB2:" < idx_of "join")

(* ------------------------------------------------------------------ *)

let illegal_dataflow_without_outlining () =
  (* §IV-B: without outlining, the serial register allocator keeps [found]
     in a master register that virtual-thread writes never reach *)
  let a = Array.make 32 0 in
  a.(17) <- 5;
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let src = Core.Kernels.fig8_found ~n:32 in
  Tu.expect_output ~memmap "with outlining" "1" src;
  let wrong =
    Core.Toolchain.exec ~memmap ~config:Xmtsim.Config.tiny
      ~options:{ opts with D.outline = false } src
  in
  Tu.check_string "without outlining: illegal dataflow" "0"
    wrong.Core.Toolchain.output

(* ------------------------------------------------------------------ *)
(* Cold compiles *)

(* A cold compile costs in proportion to the program, not its data: a
   2 MiB [.space] array is laid out, never materialized (materialized,
   it alone is 2M words). *)
let cold_compile_allocation () =
  let src = "int A[524288]; int main(void) { A[3] = 7; print_int(A[3]); return 0; }" in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  let compiled = Core.Toolchain.compile src in
  let words = allocated () -. before in
  Tu.check_bool (Printf.sprintf "%.0f words allocated, under 65536" words) true
    (words < 65536.0);
  Tu.check_string "still runs" "7"
    (Xmtsim.Functional_mode.run compiled.Core.Toolchain.image).Xmtsim.Functional_mode.output

let () =
  Alcotest.run "compiler"
    [
      ( "outline",
        [
          Tu.tc "extracts function" outline_extracts_function;
          Tu.tc "capture classes" outline_capture_classes;
          Tu.tc "globals not captured" outline_no_globals_captured;
          Tu.tc "source-to-source" outline_pretty_is_source_to_source;
          Tu.tc "ps increment by ref" outline_ps_increment_by_ref;
          Tu.tc "illegal dataflow without it" illegal_dataflow_without_outlining;
        ] );
      ( "cluster",
        [
          Tu.tc "preserves semantics" clustering_preserves_semantics;
          Tu.tc "reduces virtual threads" clustering_reduces_virtual_threads;
        ] );
      ( "optimizer",
        [
          Tu.tc "preserves output" optimizer_preserves_output;
          Tu.tc "shrinks code" optimizer_shrinks_code;
          Tu.tc "constant folding" constant_folding_works;
        ] );
      ( "xmt passes",
        [
          Tu.tc "fence before ps/psm" fences_before_prefix_sums;
          Tu.tc "nb stores in parallel" nbstore_in_parallel_only;
          Tu.tc "prefetch inserted" prefetch_inserted;
          Tu.tc "prefetch preserves results" prefetch_preserves_results;
        ] );
      ( "regalloc",
        [
          Tu.tc "spill error in parallel code" spill_error_in_parallel_code;
          Tu.tc "spill ok in serial code" spill_ok_in_serial_code;
        ] );
      ( "postpass",
        [
          Tu.tc "fig9 sunk and repaired" fig9_block_sunk_and_repaired;
          Tu.tc "fig9 semantics preserved" fig9_fix_preserves_semantics;
          Tu.tc "rejects jal in region" postpass_rejects_jal_in_region;
          Tu.tc "rejects unbalanced spawn" postpass_rejects_unbalanced_spawn;
          Tu.tc "relocation matches Fig 9b" postpass_relocation_matches_fig9;
        ] );
      ("cold compile", [ Tu.tc "allocation independent of .space" cold_compile_allocation ]);
    ]
