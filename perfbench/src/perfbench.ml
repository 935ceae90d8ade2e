(** The repository benchmark: one workload per process.

    {v
    perfbench.exe --workload table1|sweep --seed N --seconds S
                  --trace 0|1 [--daemon PATH] [--run-dir DIR]
    v}

    Runs the workload for [S] seconds on inputs made from [N], checks
    every output, and prints as its last stdout line one JSON object:
    [correct], [attempted], [failed] and [metrics] — the end-to-end
    metrics of [BENCHMARK.json] with [--trace 0], its per-layer metrics
    with [--trace 1].  Run from the repository root (see
    [perfbench/run.py], which builds this first; [--daemon] names the
    [xmtserved] the traced [sweep] run drives). *)

module J = Obs.Json

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload table1|sweep --seed N --seconds S \
     --trace 0|1 [--daemon PATH] [--run-dir DIR]";
  exit 2

(* (name, unit) of the metrics BENCHMARK.json declares under [key] *)
let declared key =
  let doc = J.of_string (Host.read_file "BENCHMARK.json") in
  match J.member key doc with
  | Some (J.List ms) ->
    List.map
      (fun m ->
        match (J.member "name" m, J.member "unit" m) with
        | Some (J.Str n), Some (J.Str u) -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed metric under " ^ key))
      ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

let number v =
  if not (Float.is_finite v) then invalid_arg "non-finite metric";
  Printf.sprintf "%.17g" v

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed = int_of_string (get "seed") in
  let seconds = float_of_string (get "seconds") in
  let trace = get "trace" = "1" in
  let run_dir = Option.value ~default:"perfbench/.run" (List.assoc_opt "run-dir" opts) in
  let metrics = declared (if trace then "per_layer" else "end_to_end") in
  Ledger.tracing := trace;
  Host.mkdir_p run_dir;
  let probe_start = Host.probe_ms () in
  (match workload with
  | "table1" -> Table1.run ~seed ~seconds
  | "sweep" -> Sweep.run ~seed ~seconds ~run_dir ~daemon:(get "daemon")
  | w ->
    Printf.eprintf "perfbench: unknown workload %S\n" w;
    exit 2);
  let probe_end = Host.probe_ms () in
  Ledger.set "host.probe_ms.start" probe_start;
  Ledger.set "host.probe_ms.end" probe_end;
  if trace then begin
    List.iter (fun (layer, ms) -> Ledger.set ("self_ms." ^ layer) ms) (Span.self_ms ());
    Ledger.seti "trace.spans" (Span.count ());
    Span.write (Filename.concat run_dir (Printf.sprintf "spans-%s-%d.json" workload seed))
  end;
  (* a declared end-to-end metric the workload did not produce is a
     benchmark bug; a per-layer metric of a layer the workload does not
     run reads 0 and is named in the detail line *)
  let absent = List.filter (fun (n, _) -> not (Hashtbl.mem Ledger.metrics n)) metrics in
  if absent <> [] then begin
    if not trace then
      Ledger.fail "end-to-end metrics not produced: %s"
        (String.concat ", " (List.map fst absent));
    Ledger.note "not_run_here" (J.List (List.map (fun (n, _) -> J.Str n) absent))
  end;
  Ledger.note "host.probe_ms" (J.List [ J.Float probe_start; J.Float probe_end ]);
  Ledger.note "reference_per_host_s" (J.Float (Host.run_factor ()));
  Ledger.notei "reference_probes" (List.length !Host.probes);
  Ledger.note "workload" (J.Str workload);
  Ledger.note "seed" (J.Int seed);
  print_endline (J.to_string (J.Obj [ ("perfbench.detail", J.Obj (List.rev !Ledger.detail)) ]));
  let body =
    List.map
      (fun (n, u) ->
        let v = Option.value ~default:0.0 (Hashtbl.find_opt Ledger.metrics n) in
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (J.to_string (J.Str n))
          (number v) (J.to_string (J.Str u)))
      metrics
  in
  let correct = !Ledger.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !Ledger.attempted) !Ledger.failed (String.concat ", " body);
  exit (if correct then 0 else 1)
