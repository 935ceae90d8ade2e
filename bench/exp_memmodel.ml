(** Figs. 6 and 7 — the XMT memory model (§IV-A).

    Outcome histograms of the two-thread litmus programs across a sweep of
    reader delays and arbitration seeds (see examples/memory_model.ml for
    the staging details).  Reproduction targets:

    - Fig. 6 (no ordering operations): the counter-intuitive (rx,ry)=(0,1)
      outcome appears;
    - Fig. 7 (psm + compiler fences): "if ry >= 1 then rx = 1" always;
    - Fig. 7 with fences disabled: the violation reappears. *)

open Bench_util

let threads = 64
let hammer_iters = 400
let delays = [ 0; 80; 160; 250; 400; 900 ]
let seeds = [ 1; 2; 3 ]

let config seed =
  Xmtsim.Config.with_overrides Xmtsim.Config.fpga64
    [ Printf.sprintf "seed=%d" seed; "icn_jitter=4"; "cache_ports=2" ]

let outcomes ?options src_of =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun delay ->
      List.iter
        (fun seed ->
          let compiled = compile ?options (src_of delay) in
          let r = Core.Toolchain.run_cycle ~config:(config seed) compiled in
          let k = r.Core.Toolchain.output in
          Hashtbl.replace tbl k
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        seeds)
    delays;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let violated l =
  List.exists
    (fun (k, _) ->
      match String.split_on_char ' ' k with
      | [ rx; ry ] -> int_of_string ry >= 1 && int_of_string rx = 0
      | _ -> false)
    l

let show name l =
  Printf.printf "  %-26s" name;
  List.iter (fun (k, v) -> Printf.printf "  (%s) x%-2d" k v) l;
  print_newline ()

let run () =
  section "Figs. 6/7: memory-model litmus outcomes (outcome = \"rx ry\")";
  let fig6 =
    outcomes (fun d -> Core.Kernels.fig6_litmus ~threads ~hammer_iters ~delay:d ())
  in
  let fig7 =
    outcomes (fun d -> Core.Kernels.fig7_litmus ~threads ~hammer_iters ~delay:d ())
  in
  let nofence =
    outcomes
      ~options:
        { Compiler.Driver.default_options with Compiler.Driver.fences = false }
      (fun d -> Core.Kernels.fig7_litmus ~threads ~hammer_iters ~delay:d ())
  in
  show "Fig. 6 (no sync)" fig6;
  show "Fig. 7 (psm + fences)" fig7;
  show "Fig. 7 (fences off)" nofence;
  Printf.printf "\nshape checks:\n";
  check (violated fig6) "Fig. 6 shows relaxed (0,1)";
  check (not (violated fig7)) "Fig. 7 upholds ry>=1 -> rx=1";
  check (violated nofence) "Fig. 7 w/o fences shows the violation"
