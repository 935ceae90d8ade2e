type t = int
type f = int
type g = int

let num_regs = 32
let num_fregs = 32
let num_globals = 9
let g_spawn = 8
let zero = 0
let v0 = 2
let v1 = 3
let a0 = 4
let a1 = 5
let a2 = 6
let a3 = 7
let gp = 28
let sp = 29
let fp = 30
let ra = 31
let temporaries = [ 8; 9; 10; 11; 12; 13; 14; 15; 24; 25 ]
let saved = [ 16; 17; 18; 19; 20; 21; 22; 23 ]
let args = [ a0; a1; a2; a3 ]
let fargs = [ 12; 13; 14; 15 ]

let names =
  [|
    "zero"; "at"; "v0"; "v1"; "a0"; "a1"; "a2"; "a3"; "t0"; "t1"; "t2"; "t3";
    "t4"; "t5"; "t6"; "t7"; "s0"; "s1"; "s2"; "s3"; "s4"; "s5"; "s6"; "s7";
    "t8"; "t9"; "k0"; "k1"; "gp"; "sp"; "fp"; "ra";
  |]

let name r =
  if r < 0 || r >= num_regs then invalid_arg "Reg.name"
  else "$" ^ names.(r)

let fname r =
  if r < 0 || r >= num_fregs then invalid_arg "Reg.fname"
  else Printf.sprintf "$f%d" r

let gname r =
  if r < 0 || r >= num_globals then invalid_arg "Reg.gname"
  else Printf.sprintf "$g%d" r

let of_string s =
  let n = String.length s in
  if n < 2 || s.[0] <> '$' then None
  else
    let body = String.sub s 1 (n - 1) in
    match int_of_string_opt body with
    | Some i when i >= 0 && i < num_regs -> Some i
    | Some _ -> None
    | None ->
      let rec find i =
        if i >= num_regs then None
        else if names.(i) = body then Some i
        else find (i + 1)
      in
      find 0

let numbered_of_string prefix limit s =
  let n = String.length s in
  let p = String.length prefix in
  if n <= p || String.sub s 0 p <> prefix then None
  else
    match int_of_string_opt (String.sub s p (n - p)) with
    | Some i when i >= 0 && i < limit -> Some i
    | Some _ | None -> None

let f_of_string s = numbered_of_string "$f" num_fregs s
let g_of_string s = numbered_of_string "$g" num_globals s
