(** End-to-end tests: XMTC kernels compiled and simulated, validated
    against host references, across configurations and compiler options. *)

module D = Compiler.Driver
module C = Xmtsim.Config

let opts = D.default_options

let compaction_matrix () =
  let a = Core.Workloads.sparse_array ~seed:2 ~n:96 ~density:35 in
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let src = Core.Kernels.compaction ~n:96 in
  let expected = string_of_int (Core.Reference.count_nonzero a) in
  List.iter
    (fun (name, options) ->
      Tu.expect_output ~options ~memmap ~config:C.tiny ("tiny " ^ name) expected src;
      Tu.expect_output ~options ~memmap ~config:C.fpga64 ("fpga64 " ^ name) expected
        src)
    [
      ("default", opts);
      ("O0", { opts with D.opt_level = 0 });
      ("no prefetch", { opts with D.prefetch = false });
      ("blocking stores", { opts with D.nbstore = false });
      ("no layout opt", { opts with D.layout_opt = false });
      ("cluster 4", { opts with D.cluster = 4 });
    ]

let compaction_output_is_permutation () =
  (* B[1..base] holds exactly the non-zero values of A, in some order *)
  let a = Core.Workloads.sparse_array ~seed:13 ~n:64 ~density:40 in
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let compiled = Core.Toolchain.compile ~memmap (Core.Kernels.compaction ~n:64) in
  let m = Core.Toolchain.machine ~config:C.fpga64 compiled in
  ignore (Xmtsim.Machine.run m);
  let b = Core.Toolchain.read_global m compiled "B" 64 in
  let count = Core.Reference.count_nonzero a in
  let collected = Array.sub b 0 count in
  let expected = Array.of_list (List.filter (fun x -> x <> 0) (Array.to_list a)) in
  Array.sort compare collected;
  Array.sort compare expected;
  Alcotest.(check (array int)) "same multiset" expected collected

let bfs_matches_reference () =
  List.iter
    (fun (seed, n, epv, chain) ->
      let g = Core.Workloads.random_graph ~chain ~seed ~n ~edges_per_vertex:epv () in
      let src = Core.Kernels.bfs ~n ~m:g.Core.Workloads.m ~src:0 in
      let reached, total = Core.Reference.bfs_summary g 0 in
      Tu.expect_output ~memmap:(Core.Workloads.graph_memmap g) ~config:C.fpga64
        (Printf.sprintf "bfs n=%d" n)
        (Printf.sprintf "%d %d" reached total)
        src)
    [ (1, 60, 2, 10); (2, 120, 1, 40); (3, 50, 3, 0) ]

let bfs_disconnected () =
  let g = Core.Workloads.rings ~k:3 ~len:10 in
  let src = Core.Kernels.bfs ~n:30 ~m:g.Core.Workloads.m ~src:0 in
  let reached, total = Core.Reference.bfs_summary g 0 in
  Tu.check_int "only one ring reached" 10 reached;
  Tu.expect_output ~memmap:(Core.Workloads.graph_memmap g) ~config:C.tiny "bfs rings"
    (Printf.sprintf "%d %d" reached total)
    src

let connectivity_matches_reference () =
  List.iter
    (fun (k, len) ->
      let g = Core.Workloads.rings ~k ~len in
      let m = Array.length g.Core.Workloads.edges in
      let src = Core.Kernels.connectivity ~n:(k * len) ~m in
      Tu.expect_output ~memmap:(Core.Workloads.edgelist_memmap g) ~config:C.fpga64
        (Printf.sprintf "cc %d rings" k)
        (string_of_int (Core.Reference.components g))
        src)
    [ (1, 12); (4, 6); (7, 4) ]

let connectivity_random_graph () =
  let g = Core.Workloads.random_graph ~seed:5 ~n:40 ~edges_per_vertex:1 () in
  let m = Array.length g.Core.Workloads.edges in
  let src = Core.Kernels.connectivity ~n:40 ~m in
  Tu.expect_output ~memmap:(Core.Workloads.edgelist_memmap g) ~config:C.fpga64
    "cc random"
    (string_of_int (Core.Reference.components g))
    src

let matmul_matches_reference () =
  let n = 8 in
  let a = Core.Workloads.random_float_array ~seed:1 ~n:(n * n) in
  let b = Core.Workloads.random_float_array ~seed:2 ~n:(n * n) in
  let memmap = Isa.Memmap.of_floats [ ("A", a); ("B", b) ] in
  let compiled = Core.Toolchain.compile ~memmap (Core.Kernels.matmul ~n) in
  let m = Core.Toolchain.machine ~config:C.fpga64 compiled in
  ignore (Xmtsim.Machine.run m);
  let addr = Isa.Program.address_of compiled.Core.Toolchain.image "C" in
  let cref = Core.Reference.matmul a b n in
  for i = 0 to (n * n) - 1 do
    let got =
      Isa.Value.to_flt
        (Xmtsim.Mem.read (Xmtsim.Machine.mem m) (addr + (4 * i)))
    in
    if abs_float (got -. cref.(i)) > 1e-6 then
      Alcotest.failf "C[%d]: got %g, want %g" i got cref.(i)
  done

let spmv_matches_reference () =
  let n = 32 and nnz_per_row = 4 in
  let row, col, nzv = Core.Workloads.random_csr_matrix ~seed:4 ~n ~nnz_per_row in
  let x = Core.Workloads.random_float_array ~seed:5 ~n in
  let memmap =
    Isa.Memmap.of_ints [ ("row", row); ("col", col) ]
    @ Isa.Memmap.of_floats [ ("nzv", nzv); ("x", x) ]
  in
  let compiled =
    Core.Toolchain.compile ~memmap (Core.Kernels.spmv ~n ~nnz:(n * nnz_per_row))
  in
  let m = Core.Toolchain.machine ~config:C.fpga64 compiled in
  ignore (Xmtsim.Machine.run m);
  let addr = Isa.Program.address_of compiled.Core.Toolchain.image "y" in
  let yref = Core.Reference.spmv row col nzv x n in
  for i = 0 to n - 1 do
    let got =
      Isa.Value.to_flt (Xmtsim.Mem.read (Xmtsim.Machine.mem m) (addr + (4 * i)))
    in
    if abs_float (got -. yref.(i)) > 1e-5 then
      Alcotest.failf "y[%d]: got %g, want %g" i got yref.(i)
  done

let fft_matches_reference () =
  let n = 64 in
  let re = Core.Workloads.random_float_array ~seed:1 ~n in
  let im = Core.Workloads.random_float_array ~seed:2 ~n in
  let wr, wi = Core.Reference.fft_twiddles n in
  let memmap =
    Isa.Memmap.of_floats [ ("re", re); ("im", im); ("wr", wr); ("wi", wi) ]
  in
  let rre, rim = Core.Reference.fft re im in
  let compiled = Core.Toolchain.compile ~memmap (Core.Kernels.fft ~n) in
  let m = Core.Toolchain.machine ~config:C.fpga64 compiled in
  ignore (Xmtsim.Machine.run m);
  let addr_re = Isa.Program.address_of compiled.Core.Toolchain.image "re" in
  let addr_im = Isa.Program.address_of compiled.Core.Toolchain.image "im" in
  for i = 0 to n - 1 do
    let gr = Isa.Value.to_flt (Xmtsim.Mem.read (Xmtsim.Machine.mem m) (addr_re + (4 * i))) in
    let gi = Isa.Value.to_flt (Xmtsim.Mem.read (Xmtsim.Machine.mem m) (addr_im + (4 * i))) in
    if abs_float (gr -. rre.(i)) > 1e-9 || abs_float (gi -. rim.(i)) > 1e-9 then
      Alcotest.failf "fft[%d]: got (%g,%g), want (%g,%g)" i gr gi rre.(i) rim.(i)
  done;
  (* the serial variant prints the same checkpoint values *)
  let p = Core.Toolchain.run_cycle ~config:C.fpga64 compiled in
  let sc = Core.Toolchain.compile ~memmap (Core.Kernels.fft_serial ~n) in
  let sr = Core.Toolchain.run_cycle ~config:C.fpga64 sc in
  Alcotest.(check string) "serial = parallel output" p.Core.Toolchain.output
    sr.Core.Toolchain.output;
  Tu.check_bool "parallel faster" true
    (p.Core.Toolchain.cycles < sr.Core.Toolchain.cycles)

let ro_loads_agree_and_hit () =
  let n = 128 in
  let a = Core.Workloads.random_array ~seed:4 ~n ~bound:65536 in
  let table = Core.Workloads.random_array ~seed:9 ~n:256 ~bound:1000 in
  let memmap = Isa.Memmap.of_ints [ ("A", a); ("table", table) ] in
  let run use_ro =
    let src = Core.Kernels.table_lookup ~n ~iters:8 ~use_ro in
    let compiled = Core.Toolchain.compile ~memmap src in
    let m = Core.Toolchain.machine ~config:C.fpga64 compiled in
    let r = Xmtsim.Machine.run m in
    ( r.Xmtsim.Machine.cycles,
      (Xmtsim.Machine.stats m).Xmtsim.Stats.rocache_hits,
      Core.Toolchain.read_global m compiled "B" n )
  in
  let c0, h0, b0 = run false in
  let c1, h1, b1 = run true in
  Alcotest.(check (array int)) "same results" b0 b1;
  Tu.check_int "no rocache hits without ro()" 0 h0;
  Tu.check_bool "rocache hits with ro()" true (h1 > 0);
  Tu.check_bool "ro() faster" true (c1 < c0)

let ro_rejected_in_serial_code () =
  match
    Core.Toolchain.compile "int t[4]; int main() { int x = ro(t[0]); return x; }"
  with
  | exception Compiler.Driver.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected ro() to be parallel-only"

let reductions_agree () =
  let a = Core.Workloads.random_array ~seed:6 ~n:128 ~bound:1000 in
  let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
  let expected = string_of_int (Core.Reference.sum a) in
  Tu.expect_output ~memmap ~config:C.fpga64 "psm reduce" expected
    (Core.Kernels.reduce_psm ~n:128);
  Tu.expect_output ~memmap ~config:C.fpga64 "tree reduce" expected
    (Core.Kernels.reduce_tree ~n:128)

let serialized_nested_spawn () =
  let src =
    {|
int A[6];
int total = 0;
int main(void) {
  spawn(0, 1) {
    int outer = $;
    spawn(0, 2) {
      int v = outer * 3 + $ + 1;
      psm(v, total);
    }
  }
  print_int(total);
  return 0;
}
|}
  in
  (* outer=0: 1+2+3=6; outer=1: 4+5+6=15; total 21 *)
  Tu.expect_output ~config:C.tiny "nested serialized" "21" src

let malloc_and_pointers () =
  let src =
    {|
int n = 5;
int main(void) {
  int *p = malloc(n * 4);
  int i;
  for (i = 0; i < n; i++) p[i] = i * i;
  spawn(0, 4) {
    p[$] = p[$] + 1;
  }
  {
    int s = 0;
    for (i = 0; i < n; i++) s = s + p[i];
    print_int(s);
  }
  return 0;
}
|}
  in
  (* sum (i^2 + 1) for i in 0..4 = 30 + 5 = 35 *)
  Tu.expect_output ~config:C.tiny "malloc" "35" src

let control_flow_in_spawn () =
  let src = {|
int A[64];
int out = 0;
int main(void) {
  spawn(0, 15) {
    int k = 0;
    int acc = 0;
    do {
      if (k == 2) { k = k + 1; continue; }
      if (k > 3) break;
      acc = acc + A[$ * 4 + (k & 3)];
      k = k + 1;
    } while (k < 10);
    int v = acc;
    psm(v, out);
  }
  print_int(out);
  return 0;
}
|} in
  (* per thread: k=0,1,3 contribute A[4t+0], A[4t+1], A[4t+3] *)
  let a = Array.init 64 (fun i -> i) in
  let expected =
    let s = ref 0 in
    for t = 0 to 15 do
      s := !s + a.((4 * t) + 0) + a.((4 * t) + 1) + a.((4 * t) + 3)
    done;
    string_of_int !s
  in
  Tu.expect_output ~memmap:(Isa.Memmap.of_ints [ ("A", a) ]) ~config:C.tiny
    "do/break/continue in spawn" expected src

let compound_assignment_matrix () =
  let src = {|
int main(void) {
  int a = 100;
  a += 7; a -= 3; a *= 2; a /= 4; a %= 13;
  a <<= 3; a >>= 1; a |= 64; a &= 127; a ^= 21;
  print_int(a);
  return 0;
}
|} in
  let v = ref 100 in
  v := !v + 7; v := !v - 3; v := !v * 2; v := !v / 4; v := !v mod 13;
  v := !v lsl 3; v := !v asr 1; v := !v lor 64; v := !v land 127;
  v := !v lxor 21;
  Tu.expect_output ~config:C.tiny "compound assignment" (string_of_int !v) src

let negative_and_large_immediates () =
  let src = {|
int main(void) {
  int big = 1000000007;
  int neg = -2147483647;
  print_int(big + 1);
  print_string(" ");
  print_int(neg - 1);
  print_string(" ");
  print_int(big * 3);
  return 0;
}
|} in
  let expected =
    Printf.sprintf "%d %d %d"
      (Isa.Value.wrap32 1000000008)
      (Isa.Value.wrap32 (-2147483648))
      (Isa.Value.wrap32 (1000000007 * 3))
  in
  Tu.expect_output ~config:C.tiny "immediates" expected src

let ternary_and_shortcircuit_in_spawn () =
  let src = {|
int A[32];
int count = 0;
int main(void) {
  spawn(0, 31) {
    int v = A[$];
    int pick = (v > 50 && v < 90) ? 1 : 0;
    if (pick || v == 7) {
      int one = 1;
      psm(one, count);
    }
  }
  print_int(count);
  return 0;
}
|} in
  let a = Core.Workloads.random_array ~seed:17 ~n:32 ~bound:100 in
  let expected =
    Array.fold_left
      (fun acc v -> if (v > 50 && v < 90) || v = 7 then acc + 1 else acc)
      0 a
  in
  Tu.expect_output ~memmap:(Isa.Memmap.of_ints [ ("A", a) ]) ~config:C.tiny
    "ternary + short-circuit" (string_of_int expected) src

let structs_end_to_end () =
  let src = {|
struct point {
  int x;
  int y;
  float w;
};

struct node {
  int value;
  struct node *next;
};

struct point pts[8];
struct point origin;

int main(void) {
  int i;
  origin.x = 3;
  origin.y = 4;
  origin.w = 1.5;
  for (i = 0; i < 8; i++) {
    pts[i].x = i;
    pts[i].y = i * 2;
  }
  spawn(0, 7) {
    struct point *p = &pts[$];
    p->x = p->x + origin.x;
    p->y = p->y + origin.y;
  }
  {
    struct node *head = (struct node *)0;
    int k;
    int sum = 0;
    for (k = 0; k < 5; k++) {
      struct node *n = (struct node *)malloc(8);
      n->value = k * k;
      n->next = head;
      head = n;
    }
    while (head != (struct node *)0) {
      sum = sum + head->value;
      head = head->next;
    }
    print_int(sum);
  }
  print_string(" ");
  {
    int sx = 0;
    int sy = 0;
    for (i = 0; i < 8; i++) { sx = sx + pts[i].x; sy = sy + pts[i].y; }
    print_int(sx);
    print_string(" ");
    print_int(sy);
    print_string(" ");
    print_float(origin.w);
  }
  return 0;
}
|} in
  (* list: 0+1+4+9+16=30; sx = 28+8*3 = 52; sy = 56+8*4 = 88 *)
  Tu.expect_output ~config:C.tiny "structs" "30 52 88 1.5" src;
  (* the pretty-printed (outlined) source still computes the same *)
  let p = Xmtc.Typecheck.program_of_source src in
  let printed = Xmtc.Pretty.program_to_string p in
  let r = Core.Toolchain.exec ~functional:true printed in
  Tu.check_string "pretty roundtrip" "30 52 88 1.5" r.Core.Toolchain.output

let multidim_arrays () =
  let src = {|
int M[4][8];
int main(void) {
  int i;
  int j;
  for (i = 0; i < 4; i++) {
    for (j = 0; j < 8; j++) {
      M[i][j] = i * 10 + j;
    }
  }
  spawn(0, 3) {
    int k;
    int s = 0;
    for (k = 0; k < 8; k++) s = s + M[$][k];
    M[$][0] = s;
  }
  print_int(M[0][0] + M[3][0]);
  return 0;
}
|} in
  (* row 0 sum = 0+..+7 = 28; row 3 sum = 30*8 + 28 = 268; total 296 *)
  Tu.expect_output ~config:C.tiny "2-D arrays" "296" src

let recursion_works () =
  let src =
    {|
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
int main(void) { print_int(fib(12)); return 0; }
|}
  in
  Tu.expect_output ~config:C.tiny "fib" "144" src

let float_functions () =
  let src =
    {|
float norm(float x, float y) { return sqrtf(x * x + y * y); }
int main(void) {
  print_float(norm(3.0, 4.0));
  print_string(" ");
  print_float(fabsf(-2.5));
  return 0;
}
|}
  in
  Tu.expect_output ~config:C.tiny "floats" "5 2.5" src

let string_and_char_output () =
  let src =
    {|
int main(void) {
  print_string("ab ");
  print_char('c' + 1);
  print_string(" ");
  print_int('A');
  return 0;
}
|}
  in
  Tu.expect_output ~config:C.tiny "strings" "ab d 65" src

let volatile_global_roundtrip () =
  let src =
    {|
volatile int flag = 0;
int main(void) {
  spawn(0, 3) {
    if ($ == 2) flag = 7;
  }
  print_int(flag);
  return 0;
}
|}
  in
  Tu.expect_output ~config:C.tiny "volatile" "7" src

let empty_spawn_range () =
  let src =
    {|
int n = 0;
int main(void) {
  spawn(0, n - 1) {
    print_int($);
  }
  print_int(42);
  return 0;
}
|}
  in
  Tu.expect_output ~config:C.tiny "empty range" "42" src

let more_threads_than_tcus () =
  (* tiny has 4 TCUs; 100 virtual threads must still all run *)
  let src = Core.Kernels.reduce_psm ~n:100 in
  let a = Array.make 100 1 in
  Tu.expect_output ~memmap:(Isa.Memmap.of_ints [ ("A", a) ]) ~config:C.tiny
    "100 threads on 4 TCUs" "100" src

let () =
  Alcotest.run "e2e"
    [
      ( "kernels",
        [
          Tu.tc "compaction options matrix" compaction_matrix;
          Tu.tc "compaction permutation" compaction_output_is_permutation;
          Tu.tc "bfs reference" bfs_matches_reference;
          Tu.tc "bfs disconnected" bfs_disconnected;
          Tu.tc "connectivity rings" connectivity_matches_reference;
          Tu.tc "connectivity random" connectivity_random_graph;
          Tu.tc "matmul" matmul_matches_reference;
          Tu.tc "spmv" spmv_matches_reference;
          Tu.tc "reductions" reductions_agree;
          Tu.tc "fft" fft_matches_reference;
          Tu.tc "ro() read-only loads" ro_loads_agree_and_hit;
          Tu.tc "ro() serial-only" ro_rejected_in_serial_code;
        ] );
      ( "language",
        [
          Tu.tc "nested spawn serialized" serialized_nested_spawn;
          Tu.tc "malloc" malloc_and_pointers;
          Tu.tc "recursion" recursion_works;
          Tu.tc "2-D arrays" multidim_arrays;
          Tu.tc "structs" structs_end_to_end;
          Tu.tc "do/break/continue in spawn" control_flow_in_spawn;
          Tu.tc "compound assignment" compound_assignment_matrix;
          Tu.tc "immediates" negative_and_large_immediates;
          Tu.tc "ternary + short-circuit" ternary_and_shortcircuit_in_spawn;
          Tu.tc "float functions" float_functions;
          Tu.tc "string/char output" string_and_char_output;
          Tu.tc "volatile global" volatile_global_roundtrip;
          Tu.tc "empty spawn range" empty_spawn_range;
          Tu.tc "more threads than TCUs" more_threads_than_tcus;
        ] );
    ]
