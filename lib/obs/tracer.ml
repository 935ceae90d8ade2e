(** Span tracer emitting Chrome trace-event JSON.

    Events accumulate in memory and serialize as a JSON array that
    Perfetto (https://ui.perfetto.dev) and [chrome://tracing] load
    directly.  Timestamps are integers in the trace's microsecond unit;
    the simulator uses one simulated time unit = 1 "µs" on its own
    process track, host wall-clock spans go on a separate process track,
    so the two timescales never mix on one row.

    Supported phases: B/E (nested begin/end), X (complete span with
    duration), i (instant), C (counter track), M (metadata: process and
    thread names).  [to_json] sorts events by timestamp (stable in
    emission order), which trace viewers require. *)

type arg = A_int of int | A_float of float | A_str of string

type event = {
  e_seq : int;
  e_ph : string;
  e_name : string;
  e_cat : string;
  e_ts : int;
  e_dur : int;  (** X events only; -1 otherwise *)
  e_pid : int;
  e_tid : int;
  e_args : (string * arg) list;
}

type t = {
  mutable events : event list;  (** newest first *)
  mutable meta : event list;  (** metadata events, emitted before the rest *)
  mutable seq : int;
  mutable count : int;
}

let create () = { events = []; meta = []; seq = 0; count = 0 }

let default_pid = 1

let push t ~ph ~name ~cat ~ts ~dur ~pid ~tid ~args =
  t.seq <- t.seq + 1;
  let e =
    { e_seq = t.seq; e_ph = ph; e_name = name; e_cat = cat; e_ts = ts; e_dur = dur;
      e_pid = pid; e_tid = tid; e_args = args }
  in
  if ph = "M" then t.meta <- e :: t.meta
  else begin
    t.events <- e :: t.events;
    t.count <- t.count + 1
  end

let begin_span t ~ts ?(pid = default_pid) ~tid ?(cat = "") ?(args = []) name =
  push t ~ph:"B" ~name ~cat ~ts ~dur:(-1) ~pid ~tid ~args

let end_span t ~ts ?(pid = default_pid) ~tid () =
  push t ~ph:"E" ~name:"" ~cat:"" ~ts ~dur:(-1) ~pid ~tid ~args:[]

(** A complete span: [ts .. ts+dur]. *)
let complete t ~ts ~dur ?(pid = default_pid) ~tid ?(cat = "") ?(args = []) name =
  push t ~ph:"X" ~name ~cat ~ts ~dur:(max 0 dur) ~pid ~tid ~args

let instant t ~ts ?(pid = default_pid) ~tid ?(cat = "") ?(args = []) name =
  push t ~ph:"i" ~name ~cat ~ts ~dur:(-1) ~pid ~tid ~args

(** One sample on a counter track; each pair becomes a stacked series. *)
let counter t ~ts ?(pid = default_pid) name series =
  push t ~ph:"C" ~name ~cat:"" ~ts ~dur:(-1) ~pid ~tid:0
    ~args:(List.map (fun (k, v) -> (k, A_float v)) series)

let name_process t ~pid name =
  push t ~ph:"M" ~name:"process_name" ~cat:"" ~ts:0 ~dur:(-1) ~pid ~tid:0
    ~args:[ ("name", A_str name) ]

let name_thread t ~pid ~tid name =
  push t ~ph:"M" ~name:"thread_name" ~cat:"" ~ts:0 ~dur:(-1) ~pid ~tid
    ~args:[ ("name", A_str name) ]

let length t = t.count

(* -------- serialization -------- *)

let arg_to_json = function
  | A_int i -> Json.Int i
  | A_float f -> Json.Float f
  | A_str s -> Json.Str s

let event_to_json e =
  let base =
    [
      ("ph", Json.Str e.e_ph);
      ("name", Json.Str e.e_name);
      ("ts", Json.Int e.e_ts);
      ("pid", Json.Int e.e_pid);
      ("tid", Json.Int e.e_tid);
    ]
  in
  let cat = if e.e_cat = "" then [] else [ ("cat", Json.Str e.e_cat) ] in
  let dur = if e.e_dur >= 0 then [ ("dur", Json.Int e.e_dur) ] else [] in
  let scope = if e.e_ph = "i" then [ ("s", Json.Str "t") ] else [] in
  let args =
    match e.e_args with
    | [] -> []
    | kvs -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) kvs)) ]
  in
  Json.Obj (base @ cat @ dur @ scope @ args)

(** Events sorted by timestamp (metadata first); the JSON-array trace
    format viewers expect. *)
let to_json t =
  let sorted =
    List.sort
      (fun a b ->
        match compare a.e_ts b.e_ts with 0 -> compare a.e_seq b.e_seq | c -> c)
      (List.rev t.events)
  in
  Json.List (List.map event_to_json (List.rev t.meta @ sorted))

let to_string t = Json.to_string (to_json t)

(* -------- host-side clock -------- *)

let host_epoch = Unix.gettimeofday ()

(** Microseconds of host wall-clock since the process started tracing —
    the timestamp source for host-side (pid ≠ sim) tracks. *)
let host_now_us () = int_of_float ((Unix.gettimeofday () -. host_epoch) *. 1e6)
