(** Shared helpers for the test suites. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tc name f = Alcotest.test_case name `Quick f

(** Compile and run a source in both modes; return (functional output,
    cycle output, cycles). *)
let both ?options ?memmap ?(config = Xmtsim.Config.tiny) src =
  let compiled = Core.Toolchain.compile ?options ?memmap src in
  let f = Core.Toolchain.run_functional compiled in
  let c = Core.Toolchain.run_cycle ~config compiled in
  (f.Core.Toolchain.output, c.Core.Toolchain.output, c.Core.Toolchain.cycles)

(** Assert a program prints [expected] in both modes. *)
let expect_output ?options ?memmap ?config name expected src =
  let fo, co, _ = both ?options ?memmap ?config src in
  check_string (name ^ " (functional)") expected fo;
  check_string (name ^ " (cycle)") expected co

(** Run handwritten assembly on the cycle machine. *)
let run_asm ?(config = Xmtsim.Config.tiny) ?memmap asm =
  let prog = Isa.Asm.parse asm in
  let img = Isa.Program.resolve ?extra_data:memmap prog in
  let m = Xmtsim.Machine.create ~config img in
  let r = Xmtsim.Machine.run m in
  (r, m)

let run_asm_functional ?memmap asm =
  let prog = Isa.Asm.parse asm in
  let img = Isa.Program.resolve ?extra_data:memmap prog in
  Xmtsim.Functional_mode.run img

(** Path of [examples/name], for `dune runtest` (cwd = _build/default/test,
    where dune copies the examples the tests depend on) and for
    `dune exec` (cwd = project root), which copies none: the source tree
    is then three levels above the test executable. *)
let example name =
  let dir = Filename.dirname Sys.executable_name and up = Filename.parent_dir_name in
  let under levels =
    List.fold_left Filename.concat dir (List.init levels (fun _ -> up) @ [ "examples"; name ])
  in
  if Sys.file_exists (under 1) then under 1 else under 3
