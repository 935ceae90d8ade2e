(** Tests for the ISA: registers, values, instructions, the assembler and
    program images. *)

module I = Isa.Instr
module R = Isa.Reg

let reg_names () =
  Tu.check_string "zero" "$zero" (R.name 0);
  Tu.check_string "ra" "$ra" (R.name 31);
  Tu.check_string "t0" "$t0" (R.name 8);
  Tu.check_string "f5" "$f5" (R.fname 5);
  Tu.check_string "g8" "$g8" (R.gname 8)

let reg_parse () =
  Alcotest.(check (option int)) "by name" (Some 8) (R.of_string "$t0");
  Alcotest.(check (option int)) "by number" (Some 8) (R.of_string "$8");
  Alcotest.(check (option int)) "sp" (Some 29) (R.of_string "$sp");
  Alcotest.(check (option int)) "bad" None (R.of_string "$zz");
  Alcotest.(check (option int)) "out of range" None (R.of_string "$32");
  Alcotest.(check (option int)) "freg" (Some 31) (R.f_of_string "$f31");
  Alcotest.(check (option int)) "freg bad" None (R.f_of_string "$f32");
  Alcotest.(check (option int)) "greg" (Some 8) (R.g_of_string "$g8");
  Alcotest.(check (option int)) "greg bad" None (R.g_of_string "$g9")

let value_wrap () =
  Tu.check_int "wrap max" (-2147483648) (Isa.Value.wrap32 2147483648);
  Tu.check_int "wrap -1" (-1) (Isa.Value.wrap32 0xFFFFFFFF);
  Tu.check_int "identity" 12345 (Isa.Value.wrap32 12345);
  Tu.check_int "negative identity" (-12345) (Isa.Value.wrap32 (-12345))

let value_typed () =
  Alcotest.check_raises "int of float"
    (Isa.Value.Type_error "expected int, got float 1.5") (fun () ->
      ignore (Isa.Value.to_int (Isa.Value.flt 1.5)));
  Tu.check_int "roundtrip" 7 (Isa.Value.to_int (Isa.Value.int 7))

(* ------------------------------------------------------------------ *)

let fu_classification () =
  let open I in
  Tu.check_string "add" "ALU" (fu_class_name (fu_class_of (Alu (Add, 1, 2, 3))));
  Tu.check_string "sll" "SFT" (fu_class_name (fu_class_of (Sfti (Sll, 1, 2, 3))));
  Tu.check_string "mul" "MDU" (fu_class_name (fu_class_of (Mdu (Mul, 1, 2, 3))));
  Tu.check_string "fadd" "FPU" (fu_class_name (fu_class_of (Fpu (Fadd, 1, 2, 3))));
  Tu.check_string "lw" "MEM" (fu_class_name (fu_class_of (Lw (1, 0, 2))));
  Tu.check_string "psm" "MEM" (fu_class_name (fu_class_of (Psm (1, 0, 2))));
  Tu.check_string "beq" "BR" (fu_class_name (fu_class_of (Br (Beq, 1, 2, "l"))));
  Tu.check_string "ps" "PS" (fu_class_name (fu_class_of (Ps (1, 0))));
  Tu.check_string "spawn" "CTRL" (fu_class_name (fu_class_of (Spawn (1, 2))))

let instr_targets () =
  let open I in
  Alcotest.(check (option string)) "j" (Some "foo") (target (J "foo"));
  Alcotest.(check (option string)) "beq" (Some "x") (target (Br (Beq, 1, 2, "x")));
  Alcotest.(check (option string)) "add" None (target (Alu (Add, 1, 2, 3)));
  Tu.check_string "retarget" "j bar" (to_string (with_target (J "foo") "bar"))

(* all-instruction sample for round-trip testing *)
let sample_instrs =
  let open I in
  [
    Alu (Add, 8, 9, 10); Alu (Sub, 1, 2, 3); Alu (And, 4, 5, 6);
    Alu (Or, 7, 8, 9); Alu (Xor, 10, 11, 12); Alu (Nor, 13, 14, 15);
    Alu (Slt, 16, 17, 18); Alu (Sltu, 19, 20, 21);
    Alui (Addi, 8, 9, -42); Alui (Andi, 1, 2, 255); Alui (Ori, 3, 4, 1);
    Alui (Xori, 5, 6, 7); Alui (Slti, 7, 8, 100);
    Li (9, 123456); La (10, "data_label");
    Sft (Sll, 11, 12, 13); Sfti (Sra, 14, 15, 4); Sfti (Srl, 16, 17, 2);
    Mdu (Mul, 18, 19, 20); Mdu (Div, 21, 22, 23); Mdu (Rem, 24, 25, 8);
    Fpu (Fadd, 0, 1, 2); Fpu (Fsub, 3, 4, 5); Fpu (Fmul, 6, 7, 8);
    Fpu (Fdiv, 9, 10, 11);
    Fpu1 (Fneg, 12, 13); Fpu1 (Fabs, 14, 15); Fpu1 (Fsqrt, 16, 17);
    Fpu1 (Fmov, 18, 19);
    Fcmp (Feq, 8, 0, 1); Fcmp (Flt, 9, 2, 3); Fcmp (Fle, 10, 4, 5);
    Cvt_i2f (6, 11); Cvt_f2i (12, 7); Fli (8, 3.25);
    Lw (8, 16, 9); Lwro (10, 0, 11); Sw (12, -8, 13); Swnb (14, 4, 15);
    Flw (0, 8, 16); Fsw (1, 12, 17); Pref (32, 18);
    Br (Beq, 1, 2, "lbl"); Br (Bne, 3, 4, "lbl");
    Brz (Blez, 5, "lbl"); Brz (Bgtz, 6, "lbl"); Brz (Bltz, 7, "lbl");
    Brz (Bgez, 8, "lbl"); Brz (Beqz, 9, "lbl"); Brz (Bnez, 10, "lbl");
    J "lbl"; Jal "func"; Jr 31;
    Spawn (4, 5); Join; Ps (8, 3); Psm (9, 0, 10); Chkid 8;
    Mfg (11, 0); Mtg (2, 12); Fence;
    Sys (Print_int, 4); Sys (Print_float, 0); Sys (Print_char, 5);
    Sys (Print_str, 6); Halt;
  ]

let instr_roundtrip () =
  List.iter
    (fun ins ->
      let text = I.to_string ins in
      let back = Isa.Asm.parse_instr text in
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %S" text)
        text (I.to_string back))
    sample_instrs

let asm_program_roundtrip () =
  let src =
    {|
        .text
main:   li $t0, 5
        la $t1, arr     # address of the array
        lw $t2, 0($t1)
        add $t3, $t2, $t0
        sw $t3, 4($t1)
        pint $t3
        halt
        .data
arr:    .word 10, 20, 30
f:      .float 1.5, -2.5
buf:    .space 16
msg:    .asciiz "hi\n"
|}
  in
  let p = Isa.Asm.parse src in
  let printed = Isa.Asm.print p in
  let p2 = Isa.Asm.parse printed in
  Alcotest.(check int) "same instr count"
    (List.length (Isa.Program.instructions p))
    (List.length (Isa.Program.instructions p2));
  Alcotest.(check string) "print is a fixpoint" printed (Isa.Asm.print p2)

let asm_parse_errors () =
  let bad mnem src =
    match Isa.Asm.parse src with
    | exception Isa.Asm.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" mnem
  in
  bad "unknown mnemonic" "frobnicate $t0";
  bad "bad register" "add $t0, $t9, $zz";
  bad "wrong arity" "add $t0, $t1";
  bad "instruction in data" ".data\nadd $t0, $t1, $t2";
  bad "unterminated string" ".data\ns: .asciiz \"oops"

let resolve_duplicate_label () =
  let src = "main: halt\nmain: halt" in
  match Isa.Program.resolve (Isa.Asm.parse src) with
  | exception Isa.Program.Resolve_error _ -> ()
  | _ -> Alcotest.fail "expected duplicate label error"

let resolve_undefined_target () =
  let src = "main: j nowhere" in
  match Isa.Program.resolve (Isa.Asm.parse src) with
  | exception Isa.Program.Resolve_error _ -> ()
  | _ -> Alcotest.fail "expected undefined label error"

let resolve_layout () =
  let src =
    {|
main:   la $t0, a
        la $t1, b
        halt
        .data
a:      .word 1, 2
b:      .word 3
|}
  in
  let img = Isa.Program.resolve (Isa.Asm.parse src) in
  Tu.check_int "a at base" Isa.Program.data_base_addr
    (Isa.Program.address_of img "a");
  Tu.check_int "b after a" (Isa.Program.data_base_addr + 8)
    (Isa.Program.address_of img "b");
  Tu.check_int "entry prefers main" 0 img.Isa.Program.entry;
  Tu.check_int "initial data" 3
    (Isa.Value.to_int (Isa.Program.initial_word img 2))

let resolve_memmap_link () =
  let src = "main: halt\n.data\nA: .space 16" in
  let extra = Isa.Memmap.of_ints [ ("A", [| 9; 8; 7; 6 |]) ] in
  let img = Isa.Program.resolve ~extra_data:extra (Isa.Asm.parse src) in
  Tu.check_int "linked value" 8 (Isa.Value.to_int (Isa.Program.initial_word img 1))

let resolve_memmap_overflow () =
  let src = "main: halt\n.data\nA: .space 8" in
  let extra = Isa.Memmap.of_ints [ ("A", [| 1; 2; 3 |]) ] in
  match Isa.Program.resolve ~extra_data:extra (Isa.Asm.parse src) with
  | exception Isa.Program.Resolve_error _ -> ()
  | _ -> Alcotest.fail "expected overflow error"

let resolve_memmap_fresh_label () =
  (* memory-map names that are not in the program get appended space *)
  let src = "main: halt" in
  let extra = Isa.Memmap.of_ints [ ("input", [| 5; 6 |]) ] in
  let img = Isa.Program.resolve ~extra_data:extra (Isa.Asm.parse src) in
  let a = Isa.Program.address_of img "input" in
  let w = (a - Isa.Program.data_base_addr) / 4 in
  Tu.check_int "value" 6 (Isa.Value.to_int (Isa.Program.initial_word img (w + 1)))

(* ---- resolve + Mem.load against a dense reference image ---- *)

module P = Isa.Program

(* A random data section (labels d0, d1, ...; __heap_ptr last when
   present) and memory map: entries fully or partly covering a [.space],
   overriding a [.word] item, or naming a fresh label. *)
let data_case_gen =
  let open QCheck.Gen in
  let value = oneof [ map Isa.Value.int (int_range (-99) 99);
                      map (fun i -> Isa.Value.flt (float_of_int i /. 4.0)) (int_range (-40) 40) ] in
  let payload =
    frequency
      [ (3, map (fun l -> P.Words l) (list_size (int_range 1 4) (int_range (-9) 9)));
        (2, map (fun l -> P.Floats (List.map (fun i -> float_of_int i /. 2.0) l))
              (list_size (int_range 1 3) (int_range (-9) 9)));
        (3, map (fun n -> P.Space n) (int_range 1 24));
        (1, map (fun s -> P.Asciiz s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 5))) ]
  in
  let* payloads = list_size (int_range 0 6) payload in
  let* heap = bool in
  let data =
    List.mapi (fun i p -> { P.dlabel = Printf.sprintf "d%d" i; payload = p }) payloads
    @ (if heap then [ { P.dlabel = "__heap_ptr"; payload = P.Words [ 0 ] } ] else [])
  in
  let entry i =
    let targets =
      List.filter (fun d -> match d.P.payload with P.Space _ | P.Words _ -> true | _ -> false) data
    in
    let fresh = map (fun n -> (Printf.sprintf "m%d" i, n)) (int_range 1 5) in
    let* name, n =
      if targets = [] then fresh
      else
        frequency
          [ (3, let* d = oneofl targets in
                let size = P.payload_words d.P.payload in
                let* n = oneof [ return size; int_range 1 size ] in
                return (d.P.dlabel, n));
            (1, fresh) ]
    in
    map (fun vals -> (name, Array.of_list vals)) (list_repeat n value)
  in
  let* k = int_range 0 4 in
  let* memmap = flatten_l (List.init k entry) in
  return ({ P.text = [ P.Label "main"; P.Ins Isa.Instr.Halt ]; data }, memmap)

let print_data_case (prog, memmap) =
  Isa.Asm.print prog ^ "--- memmap\n" ^ Isa.Memmap.print memmap

(* The reference: a dense image with every word materialized, the
   payloads, then the memory map, then the heap pointer written over it
   in place. *)
let dense_image (prog : P.t) memmap =
  let fresh =
    List.filter_map
      (fun (name, vals) ->
        if List.exists (fun d -> d.P.dlabel = name) prog.P.data then None
        else Some { P.dlabel = name; payload = P.Space (Array.length vals) })
      memmap
  in
  let items = prog.P.data @ fresh in
  let offset name =
    let rec go off = function
      | [] -> raise Not_found
      | d :: rest -> if d.P.dlabel = name then off else go (off + P.payload_words d.P.payload) rest
    in
    go 0 items
  in
  let total = List.fold_left (fun n d -> n + P.payload_words d.P.payload) 0 items in
  let dense = Array.make (max total 1) Isa.Value.zero in
  List.iter
    (fun d ->
      let w0 = offset d.P.dlabel in
      let vals =
        match d.P.payload with
        | P.Words ws -> List.map Isa.Value.int ws
        | P.Floats fs -> List.map Isa.Value.flt fs
        | P.Space n -> List.init n (fun _ -> Isa.Value.zero)
        | P.Asciiz s ->
          List.init (String.length s + 1) (fun i ->
              if i < String.length s then Isa.Value.int (Char.code s.[i]) else Isa.Value.zero)
      in
      List.iteri (fun i v -> dense.(w0 + i) <- v) vals)
    items;
  List.iter
    (fun (name, vals) -> Array.iteri (fun i v -> dense.(offset name + i) <- v) vals)
    memmap;
  if List.exists (fun d -> d.P.dlabel = "__heap_ptr") items then
    dense.(offset "__heap_ptr") <-
      Isa.Value.int (P.data_base_addr + (4 * Array.length dense));
  dense

let prop_load_matches_dense =
  QCheck.Test.make ~count:300 ~long_factor:20
    ~name:"Mem.load of a resolved image equals the dense image"
    (QCheck.make ~print:print_data_case data_case_gen)
    (fun (prog, memmap) ->
      let img = Compiler.Driver.place_heap_ptr (P.resolve ~extra_data:memmap prog) in
      let dense = dense_image prog memmap in
      let mem = Xmtsim.Mem.load img in
      img.P.data_size = Array.length dense
      && Xmtsim.Mem.data_words mem = Array.length dense
      && Array.for_all Fun.id
           (Array.mapi
              (fun i v ->
                Isa.Value.equal v (Xmtsim.Mem.read mem (P.data_base_addr + (4 * i)))
                && Isa.Value.equal v (P.initial_word img i))
              dense))

(* Each malformed map fails with the message resolve has always given. *)
let prop_malformed_map_messages =
  QCheck.Test.make ~count:200 ~long_factor:20 ~name:"malformed memory maps keep their messages"
    (QCheck.make ~print:print_data_case data_case_gen)
    (fun (prog, memmap) ->
      let dense = dense_image prog memmap in
      let raises msg extra =
        match P.resolve ~extra_data:extra prog with
        | exception P.Resolve_error m -> m = msg || QCheck.Test.fail_reportf "got %S, want %S" m msg
        | _ -> QCheck.Test.fail_reportf "accepted; want %S" msg
      in
      let overflow =
        match prog.P.data with
        | [] -> true
        | d :: _ ->
          (* d0 sits at word 0: one value past the whole data segment *)
          raises
            (Printf.sprintf "memory map values for %s overflow its space" d.P.dlabel)
            (memmap @ [ (d.P.dlabel, Array.make (Array.length dense + 1) Isa.Value.zero) ])
      in
      overflow
      && raises "label main defined in both text and data"
           (memmap @ [ ("main", [| Isa.Value.zero |]) ])
      && raises "duplicate data label fresh"
           (memmap @ [ ("fresh", [| Isa.Value.zero |]); ("fresh", [| Isa.Value.zero |]) ]))

let memmap_roundtrip () =
  let mm =
    [ ("ints", [| Isa.Value.int 1; Isa.Value.int (-2) |]);
      ("floats", [| Isa.Value.flt 0.5; Isa.Value.flt 3.0 |]) ]
  in
  let text = Isa.Memmap.print mm in
  let back = Isa.Memmap.parse text in
  Tu.check_int "entries" 2 (List.length back);
  Tu.check_bool "ints equal" true
    (Array.for_all2 Isa.Value.equal (List.assoc "ints" mm) (List.assoc "ints" back));
  Tu.check_bool "floats equal" true
    (Array.for_all2 Isa.Value.equal (List.assoc "floats" mm)
       (List.assoc "floats" back))

let memmap_parse_errors () =
  (match Isa.Memmap.parse "noname" with
  | exception Isa.Memmap.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected error");
  match Isa.Memmap.parse "x: 1 oops" with
  | exception Isa.Memmap.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected error"

let () =
  Alcotest.run "isa"
    [
      ( "reg",
        [ Tu.tc "names" reg_names; Tu.tc "parse" reg_parse ] );
      ( "value",
        [ Tu.tc "wrap32" value_wrap; Tu.tc "typed cells" value_typed ] );
      ( "instr",
        [
          Tu.tc "fu classification" fu_classification;
          Tu.tc "targets" instr_targets;
          Tu.tc "text roundtrip (all forms)" instr_roundtrip;
        ] );
      ( "asm",
        [
          Tu.tc "program roundtrip" asm_program_roundtrip;
          Tu.tc "parse errors" asm_parse_errors;
        ] );
      ( "program",
        [
          Tu.tc "duplicate label" resolve_duplicate_label;
          Tu.tc "undefined target" resolve_undefined_target;
          Tu.tc "data layout" resolve_layout;
          Tu.tc "memmap link" resolve_memmap_link;
          Tu.tc "memmap overflow" resolve_memmap_overflow;
          Tu.tc "memmap fresh label" resolve_memmap_fresh_label;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_load_matches_dense; prop_malformed_map_messages ] );
      ( "memmap",
        [
          Tu.tc "roundtrip" memmap_roundtrip;
          Tu.tc "parse errors" memmap_parse_errors;
        ] );
    ]
