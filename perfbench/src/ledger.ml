(** What one run reports: metric values, operation counts, failures and
    the detail line printed before the result. *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace metrics name v
let seti name n = set name (float_of_int n)

let attempted = ref 0
let failed = ref 0

(** A failed or wrong operation: counted against the attempts; the
    first 20 are named on stderr. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if !failed <= 20 then prerr_endline ("perfbench: FAIL " ^ msg))
    fmt

let check ok fmt = Printf.ksprintf (fun msg -> if not ok then fail "%s" msg) fmt

let detail : (string * Obs.Json.t) list ref = ref []
let note k v = detail := (k, v) :: !detail
let notei k n = note k (Obs.Json.Int n)

(** [loop ~seconds ~min_units body] calls [body i] for units
    [i = 0, 1, ...] until [seconds] have passed and at least
    [min_units] units ran, or twice [seconds] have passed. *)
let loop ~seconds ~min_units body =
  let t0 = Host.now () in
  let rec go i =
    let elapsed = Host.now () -. t0 in
    if not ((elapsed >= seconds && i >= min_units) || elapsed >= 2.0 *. seconds) then begin
      body i;
      go (i + 1)
    end
  in
  go 0

(** Whether this is the traced run ([--trace 1]). *)
let tracing = ref false

(** In the traced run, units alternate untraced and traced, so host
    drift hits both halves alike and their difference is the tracing
    overhead. *)
let traced_unit i = !tracing && i mod 2 = 1

(** Tracing overhead in percent of the untraced median of a
    higher-is-better figure. *)
let overhead_pct ~untraced ~traced =
  100.0 *. (Stat.median untraced -. Stat.median traced) /. Stat.median untraced
