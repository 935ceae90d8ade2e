(** Set-up work shared by every workload: cold compiles of the programs
    it uses, repeated so [setup_s] is an order statistic of many, and
    the compiler-layer metrics read from those compiles. *)

(** Set-ups timed at each end of the run; more run between its timed
    units. *)
let edge = 8

type program = { name : string; source : string; memmap : Isa.Memmap.t }

let program ?(memmap = []) name source = { name; source; memmap }

(* per set-up: total compile ms, and per-pass ms summed over programs *)
let compile_totals = ref []
let pass_totals : (string, float list) Hashtbl.t = Hashtbl.create 16
let emitted = ref 0

(** One cold compile of every program ([Core.Toolchain.compile], no
    artifact cache), traced as [compiler.compile] spans under
    [parent]. *)
let compile_all ?(parent = 0) ~on programs =
  let passes = Hashtbl.create 16 in
  let compiled, secs =
    Host.timed (fun () ->
        List.map
          (fun p ->
            let c =
              Span.with_span ~parent ~on ~req:0 "compiler.compile" (fun _ ->
                  Core.Toolchain.compile ~memmap:p.memmap p.source)
            in
            List.iter
              (fun t ->
                let prev = Option.value ~default:0.0 (Hashtbl.find_opt passes t.Compiler.Driver.pt_pass) in
                Hashtbl.replace passes t.Compiler.Driver.pt_pass (prev +. t.Compiler.Driver.pt_ms))
              c.Core.Toolchain.cc.Compiler.Driver.timings;
            (p, c))
          programs)
  in
  compile_totals := (secs *. 1e3) :: !compile_totals;
  Hashtbl.iter
    (fun pass ms ->
      Hashtbl.replace pass_totals pass
        (ms :: Option.value ~default:[] (Hashtbl.find_opt pass_totals pass)))
    passes;
  emitted :=
    List.fold_left
      (fun acc (_, c) ->
        acc + List.length (Isa.Program.instructions c.Core.Toolchain.cc.Compiler.Driver.program))
      0 compiled;
  compiled

(** [run ~extra ~release programs] times set-ups: each compiles every
    program cold and then calls [extra ()] (pool creation or daemon
    spawn).  {!edge} of them run now; the last is kept for the
    measurement and the others are handed to [release] once timed.  It
    returns [(compiled, kept, again, finish)]: [again ()] times one more
    set-up, to be called between the workload's timed units, and
    [finish ()] times {!edge} more — call it after the measurement, once
    the kept set-up is released — and records [setup_s] and the compiler
    metrics.

    The set-ups are spread over the whole run so they meet the same
    phases of the host as the measurement does.  [setup_s] is the 10th
    percentile of their reference times ({!Host.probed}): a
    time a tenth of the real set-ups achieved, on the reference host's
    clock.  A run holds 60 to 140 set-ups. *)
let run ~extra ~release programs =
  let times = ref [] and host_times = ref [] in
  let one () =
    let r, secs, ref_secs =
      Host.probed (fun () ->
          Span.with_span ~on:!Ledger.tracing ~req:0 "perfbench.setup" (fun id ->
              let compiled = compile_all ~parent:id ~on:!Ledger.tracing programs in
              (compiled, extra ())))
    in
    times := ref_secs :: !times;
    host_times := secs :: !host_times;
    r
  in
  let again () = release (snd (one ())) in
  for _ = 2 to edge do
    again ()
  done;
  let compiled, kept = one () in
  let finish () =
    for _ = 1 to edge do
      again ()
    done;
    Ledger.set "setup_s" (Stat.quantile !times 0.1);
    let ms xs = Obs.Json.List (List.rev_map (fun s -> Obs.Json.Float (s *. 1e3)) xs) in
    Ledger.note "setup_ms" (ms !host_times);
    Ledger.note "setup_ms.reference" (ms !times);
    let n = float_of_int (List.length programs) in
    let per_compile xs = Stat.median xs /. n in
    let compile_ms = per_compile !compile_totals in
    Ledger.set "compiler.compile_ms" compile_ms;
    List.iter
      (fun pass ->
        Ledger.set ("compiler.pass_ms." ^ pass)
          (per_compile (Option.value ~default:[ 0.0 ] (Hashtbl.find_opt pass_totals pass))))
      [ "frontend"; "opt"; "regalloc"; "postpass" ];
    let all_passes =
      Hashtbl.fold (fun _ xs acc -> acc +. per_compile xs) pass_totals 0.0
    in
    Ledger.set "compiler.image_ms" (compile_ms -. all_passes);
    Ledger.seti "compiler.emitted_instrs" !emitted;
    Ledger.notei "setup.reps" (List.length !times)
  in
  (compiled, kept, again, finish)
