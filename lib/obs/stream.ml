(** Live telemetry streaming — see stream.mli. *)

type sink = { write : string -> unit; close : unit -> unit }

let sink_of_path path =
  if path = "-" then
    {
      write =
        (fun line ->
          print_string line;
          print_newline ());
      close = (fun () -> flush stdout);
    }
  else
    let path =
      match String.length path >= 3 && String.sub path 0 3 = "fd:" with
      | true -> (
        let n = String.sub path 3 (String.length path - 3) in
        match int_of_string_opt n with
        | Some fd when fd >= 0 -> Printf.sprintf "/dev/fd/%d" fd
        | _ -> invalid_arg (Printf.sprintf "Stream.sink_of_path: bad fd %S" n))
      | false -> path
    in
    let oc = open_out path in
    {
      write =
        (fun line ->
          output_string oc line;
          output_char oc '\n';
          flush oc);
      close = (fun () -> close_out oc);
    }

let buffer_sink b =
  {
    write =
      (fun line ->
        Buffer.add_string b line;
        Buffer.add_char b '\n');
    close = ignore;
  }

let null_sink () = { write = ignore; close = ignore }

type t = {
  sink : sink;
  lock : Mutex.t;
  epoch : float;  (* {!Clock.now} at create, for the default [t] *)
  mutable seq : int;
  mutable closed : bool;
}

let host_ms s = int_of_float (Clock.elapsed_since s.epoch *. 1e3)

(* Formats one record, assigns its sequence number and writes it to the
   sink, all under the stream's lock; [seq] counts the records written. *)
let emit_locked s ~typ ~t fields =
  if not s.closed then begin
    s.sink.write
      (Json.to_string
         (Json.Obj
            (("type", Json.Str typ) :: ("seq", Json.Int s.seq) :: ("t", Json.Int t)
            :: fields)));
    s.seq <- s.seq + 1
  end

let emit s ~typ ?t fields =
  Mutex.protect s.lock (fun () ->
      let t = match t with Some t -> t | None -> host_ms s in
      emit_locked s ~typ ~t fields)

let create sink =
  let s = { sink; lock = Mutex.create (); epoch = Clock.now (); seq = 0; closed = false } in
  emit s ~typ:"stream.open" [ ("schema", Json.Str "xmt.events.v1") ];
  s

let emitted s = Mutex.protect s.lock (fun () -> s.seq)

let close s =
  Mutex.protect s.lock (fun () ->
      if not s.closed then begin
        emit_locked s ~typ:"stream.close" ~t:(host_ms s) [ ("emitted", Json.Int s.seq) ];
        s.closed <- true;
        s.sink.close ()
      end)

(* ------------------------------------------------------------------ *)
(* Windowed rollups *)

type acc = { mutable a_sum : float; mutable a_min : float; mutable a_max : float }

type rollup = {
  r_stream : t;
  r_name : string;
  r_window : int;
  mutable r_index : int;  (** windows closed so far *)
  mutable r_count : int;
  mutable r_t0 : int;
  mutable r_t1 : int;
  r_acc : (string, acc) Hashtbl.t;
}

let rollup ?(window = 16) s name =
  if window <= 0 then invalid_arg "Stream.rollup: window must be positive";
  {
    r_stream = s;
    r_name = name;
    r_window = window;
    r_index = 0;
    r_count = 0;
    r_t0 = 0;
    r_t1 = 0;
    r_acc = Hashtbl.create 8;
  }

let flush_window r =
  let stats =
    Hashtbl.fold (fun k a acc -> (k, a) :: acc) r.r_acc []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (k, a) ->
           ( k,
             Json.Obj
               [
                 ("mean", Json.Float (a.a_sum /. float_of_int r.r_count));
                 ("min", Json.Float a.a_min);
                 ("max", Json.Float a.a_max);
               ] ))
  in
  emit r.r_stream ~typ:"window.close" ~t:r.r_t1
    [
      ("window", Json.Str r.r_name);
      ("index", Json.Int r.r_index);
      ("count", Json.Int r.r_count);
      ("t0", Json.Int r.r_t0);
      ("t1", Json.Int r.r_t1);
      ("metrics", Json.Obj stats);
    ];
  Hashtbl.reset r.r_acc;
  r.r_index <- r.r_index + 1;
  r.r_count <- 0

let observe r ~t kvs =
  if r.r_count = 0 then r.r_t0 <- t;
  r.r_t1 <- t;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt r.r_acc k with
      | Some a ->
        a.a_sum <- a.a_sum +. v;
        a.a_min <- Float.min a.a_min v;
        a.a_max <- Float.max a.a_max v
      | None -> Hashtbl.replace r.r_acc k { a_sum = v; a_min = v; a_max = v })
    kvs;
  r.r_count <- r.r_count + 1;
  if r.r_count >= r.r_window then flush_window r

let close_rollup r = if r.r_count > 0 then flush_window r

(* ------------------------------------------------------------------ *)
(* Validation and canonicalization *)

let required_keys = [ "type"; "seq"; "t" ]

(* A stream.open record announces the stream's schema; an announcement
   the registry doesn't know is a contract violation (a typo, or a
   producer newer than this checker), not a payload to wave through. *)
let validate_announcement j =
  match Json.member "type" j with
  | Some (Json.Str "stream.open") -> (
    match Json.member "schema" j with
    | Some (Json.Str s) when Schema.is_schema s -> Ok ()
    | Some (Json.Str s) ->
      Error
        (Printf.sprintf "stream.open announces unregistered schema %S (know: %s)"
           s
           (String.concat ", " Schema.schemas))
    | Some _ -> Error "stream.open \"schema\" must be a string"
    | None -> Error "stream.open is missing \"schema\"")
  | _ -> Ok ()

let validate j =
  match j with
  | Json.Obj _ -> (
    match Json.member "type" j with
    | Some (Json.Str _) -> (
      match Option.bind (Json.member "seq" j) Json.to_int with
      | Some _ -> (
        match Option.bind (Json.member "t" j) Json.to_float with
        | Some _ -> validate_announcement j
        | None -> Error "missing or non-numeric \"t\"")
      | None -> Error "missing or non-integer \"seq\"")
    | Some _ -> Error "\"type\" must be a string"
    | None -> Error "missing \"type\"")
  | _ -> Error "record is not a JSON object"

let validate_line line =
  match Json.of_string line with
  | j -> Result.map (fun () -> j) (validate j)
  | exception Json.Parse_error msg -> Error msg

let check_whole records =
  let str k j = match Json.member k j with Some (Json.Str v) -> Some v | _ -> None in
  let int k j = Option.bind (Json.member k j) Json.to_int in
  let rec dense i = function
    | [] -> Ok ()
    | j :: rest when int "seq" j = Some i -> dense (i + 1) rest
    | _ -> Error (Printf.sprintf "seq is not dense: record %d should have seq %d" (i + 1) i)
  in
  match (records, List.rev records) with
  | first :: _, last :: before
    when str "type" first = Some "stream.open" && str "type" last = Some "stream.close" ->
    Result.bind (dense 0 records) (fun () ->
        match int "emitted" last with
        | Some e when e = List.length before -> Ok ()
        | Some e ->
          Error
            (Printf.sprintf "stream.close counts %d emitted record(s), %d precede it" e
               (List.length before))
        | None -> Error "stream.close is missing an integer \"emitted\"")
  | _ -> Ok ()

(* Keys that depend on the host (ordering, wall-clock, throughput): the
   canonical form strips them so serial and parallel runs of the same
   campaign agree byte-for-byte. *)
let host_keys =
  [
    "seq"; "t"; "wall_seconds"; "elapsed_seconds"; "eta_seconds";
    "jobs_per_sec"; "events_per_sec"; "running"; "workers"; "backtrace";
  ]

let job_key j =
  let int k = Option.bind (Json.member k j) Json.to_int in
  match (int "job", int "jseq") with
  | Some job, Some jseq -> Some (job, jseq)
  | _ -> None

let canonicalize records =
  let job j = Option.bind (Json.member "job" j) Json.to_int in
  let strip = function
    | Json.Obj kvs ->
      Json.Obj (List.filter (fun (k, _) -> not (List.mem k host_keys)) kvs)
    | j -> j
  in
  (* a job record without a sequence number sorts last within its job *)
  let key j =
    match job_key j with Some k -> k | None -> (Option.get (job j), max_int)
  in
  List.filter (fun j -> job j <> None) records |> List.map strip
  |> List.stable_sort (fun a b -> compare (key a) (key b))

let canonicalize_lines text =
  let records =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map Json.of_string
  in
  match canonicalize records with
  | [] -> ""
  | canon -> String.concat "\n" (List.map Json.to_string canon) ^ "\n"
