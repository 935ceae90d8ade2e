(** Structured diagnostics for the race / memory-model checker.

    Every finding carries a stable machine-readable [code], the enclosing
    function, the source line of the spawn block it concerns (or -1 for
    IR-level findings with no source anchor) and the variables involved.
    [Warning] marks heuristic findings (possible overlap the analysis
    cannot prove) and deviations that cannot change observable behaviour;
    [Error] marks definite memory-model violations. *)

type severity = Warning | Error

type finding = {
  severity : severity;
  code : string;
  func : string;
  line : int;  (** spawn source line; -1 = IR-level finding *)
  vars : string list;  (** involved variables, shared base first *)
  message : string;
}

let severity_name = function Warning -> "warning" | Error -> "error"

(* Deterministic report order: location, then code, then detail. *)
let compare_findings a b =
  compare
    (a.line, a.func, a.code, a.vars, a.message)
    (b.line, b.func, b.code, b.vars, b.message)

let sort fs = List.sort_uniq compare_findings fs

let errors fs = List.filter (fun f -> f.severity = Error) fs
let error_count fs = List.length (errors fs)

let render f =
  let where =
    if f.line >= 0 then Printf.sprintf "%s (line %d)" f.func f.line else f.func
  in
  let vars =
    match f.vars with
    | [] -> ""
    | vs -> Printf.sprintf " [%s]" (String.concat ", " vs)
  in
  Printf.sprintf "%s: %s: %s: %s%s" (severity_name f.severity) where f.code
    f.message vars

let to_json f =
  Obs.Json.Obj
    [
      ("severity", Obs.Json.Str (severity_name f.severity));
      ("code", Obs.Json.Str f.code);
      ("func", Obs.Json.Str f.func);
      ("line", Obs.Json.Int f.line);
      ("vars", Obs.Json.List (List.map (fun v -> Obs.Json.Str v) f.vars));
      ("message", Obs.Json.Str f.message);
    ]

(** Inverse of {!to_json}, for reports read back from a run record. *)
let of_json j =
  let module J = Obs.Json in
  let str k = match J.member k j with Some (J.Str s) -> s | _ -> "" in
  {
    severity = (if str "severity" = "error" then Error else Warning);
    code = str "code";
    func = str "func";
    line = (match J.member "line" j with Some (J.Int n) -> n | _ -> -1);
    vars =
      (match J.member "vars" j with
      | Some (J.List vs) -> List.filter_map (function J.Str v -> Some v | _ -> None) vs
      | _ -> []);
    message = str "message";
  }

let list_to_json fs = Obs.Json.List (List.map to_json (sort fs))
