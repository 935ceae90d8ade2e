(** In-memory span recorder for the traced run.

    A span is one timed call into a layer's public function: its name
    (["<layer>.<call>"]), start, end, the span it ran under and the id
    of the job or request it belongs to.  Spans stay in memory until
    {!write} at the end of the run, so recording costs a clock read and
    a list cons. *)

type t = {
  id : int;
  parent : int;  (** 0 = a root span *)
  req : int;  (** job or request id shared by one unit's spans *)
  name : string;
  t0 : float;
  t1 : float;
}

let lock = Mutex.create ()
let spans : t list ref = ref []
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

let record s = Mutex.protect lock (fun () -> spans := s :: !spans)

(** Record an interval measured elsewhere (e.g. from event timestamps);
    returns its id. *)
let interval ?(parent = 0) ~on ~req name t0 t1 =
  let id = fresh_id () in
  if on then record { id; parent; req; name; t0; t1 };
  id

(** [with_span ~on ~req name f] times [f id], where [id] is the new
    span's id for children to name as their parent.  A plain call when
    [on] is false. *)
let with_span ?(parent = 0) ~on ~req name f =
  if not on then f 0
  else begin
    let id = fresh_id () in
    let t0 = Host.now () in
    let r = f id in
    record { id; parent; req; name; t0; t1 = Host.now () };
    r
  end

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* length of the union of [intervals] clipped to [lo, hi] *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match cur with Some (ca, cb) -> total +. (cb -. ca) | None -> total

(** Self milliseconds per layer: each span's duration minus the part of
    it that its children cover, summed by layer. *)
let self_ms () =
  let all = !spans in
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) all;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. covered s.t0 s.t1 (Hashtbl.find_all children s.id) in
      let l = layer s.name in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_layer l) in
      Hashtbl.replace by_layer l (prev +. (self *. 1e3)))
    all;
  List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer [])

let count () = List.length !spans

(** Write every span as an [xmt.perfbench.spans.v1] JSON document. *)
let write path =
  let module J = Obs.Json in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity !spans in
  let span s =
    J.Obj
      [
        ("id", J.Int s.id);
        ("parent", J.Int s.parent);
        ("req", J.Int s.req);
        ("name", J.Str s.name);
        ("start_us", J.Float ((s.t0 -. base) *. 1e6));
        ("end_us", J.Float ((s.t1 -. base) *. 1e6));
      ]
  in
  J.write_file path
    (J.Obj
       [
         ("schema", J.Str "xmt.perfbench.spans.v1");
         ("spans", J.List (List.rev_map span !spans));
       ])
