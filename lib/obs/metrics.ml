(** Typed metrics registry: counters, gauges and histograms with labels.

    Components register metrics by name (dot-separated, e.g.
    ["sim.cache.accesses"]) plus an optional label set; registering the
    same name + labels twice returns the same instrument.  A registry is
    cheap to create; the simulator exports its activity counters into a
    fresh registry at reporting time ({!Xmtsim.Stats.export}), so the hot
    simulation loop keeps its flat mutable record while every consumer
    (JSON files, benches, tests) reads one uniform shape.

    Naming conventions (also in the README):
    - [sim.*]  — simulated-machine quantities (cycles, packets, hits)
    - [host.*] — wall-clock/simulator-throughput quantities
    - labels discriminate instances of one quantity ([cache="ro"]), never
      different quantities. *)

type labels = (string * string) list

type histogram = {
  h_buckets : float array;  (** upper bounds, ascending; +inf is implicit *)
  h_counts : int array;  (** length = buckets + 1 (overflow) *)
  mutable h_sum : float;
  mutable h_count : int;
  mutable h_min : float;  (** +inf until the first observation *)
  mutable h_max : float;  (** -inf until the first observation *)
}

type value =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of histogram

type metric = {
  m_name : string;
  m_labels : labels;
  m_help : string;
  m_value : value;
}

type t = {
  tbl : (string * labels, metric) Hashtbl.t;
  mutable order : metric list;  (** registration order, reversed *)
}

let create () = { tbl = Hashtbl.create 64; order = [] }
let norm_labels labels = List.sort compare labels

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register t ?(help = "") ?(labels = []) name mk =
  let key = (name, norm_labels labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some m -> m
  | None ->
    let m = { m_name = name; m_labels = norm_labels labels; m_help = help; m_value = mk () } in
    Hashtbl.replace t.tbl key m;
    t.order <- m :: t.order;
    m

let counter t ?help ?labels name =
  match (register t ?help ?labels name (fun () -> Counter (ref 0))).m_value with
  | Counter r -> r
  | v -> invalid_arg (Printf.sprintf "Metrics.counter: %s is a %s" name (kind_name v))

let gauge t ?help ?labels name =
  match (register t ?help ?labels name (fun () -> Gauge (ref 0.0))).m_value with
  | Gauge r -> r
  | v -> invalid_arg (Printf.sprintf "Metrics.gauge: %s is a %s" name (kind_name v))

let histogram t ?help ?labels ~buckets name =
  let buckets = List.sort_uniq compare buckets in
  let mk () =
    Histogram
      {
        h_buckets = Array.of_list buckets;
        h_counts = Array.make (List.length buckets + 1) 0;
        h_sum = 0.0;
        h_count = 0;
        h_min = infinity;
        h_max = neg_infinity;
      }
  in
  match (register t ?help ?labels name mk).m_value with
  | Histogram h ->
    if Array.to_list h.h_buckets <> buckets then
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %s re-registered with different buckets" name);
    h
  | v -> invalid_arg (Printf.sprintf "Metrics.histogram: %s is a %s" name (kind_name v))

(* -------- instrument operations -------- *)

let inc ?(by = 1) (c : int ref) = c := !c + by
let set (g : float ref) v = g := v

let observe (h : histogram) v =
  let i = ref 0 in
  let nb = Array.length h.h_buckets in
  while !i < nb && v > h.h_buckets.(!i) do
    incr i
  done;
  h.h_counts.(!i) <- h.h_counts.(!i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

(** Estimated [q]-quantile (0 <= q <= 1) from the bucket counts, with
    linear interpolation inside the containing bucket.  The first bucket
    is bounded below by the observed minimum, the overflow bucket above by
    the observed maximum, so estimates never leave the observed range.
    Returns 0 for an empty histogram. *)
let percentile (h : histogram) q =
  if h.h_count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = q *. float_of_int h.h_count in
    let nb = Array.length h.h_buckets in
    let rec go i seen =
      if i > nb then h.h_max
      else
        let c = h.h_counts.(i) in
        if float_of_int (seen + c) >= rank || i = nb then begin
          let lo =
            if i = 0 then Float.max h.h_min neg_infinity
            else h.h_buckets.(i - 1)
          in
          let hi = if i >= nb then h.h_max else Float.min h.h_buckets.(i) h.h_max in
          let lo = Float.max lo h.h_min in
          let hi = Float.max hi lo in
          if c = 0 then hi
          else
            let frac = (rank -. float_of_int seen) /. float_of_int c in
            let frac = Float.min 1.0 (Float.max 0.0 frac) in
            lo +. ((hi -. lo) *. frac)
        end
        else go (i + 1) (seen + c)
    in
    go 0 0
  end

(* -------- reads -------- *)

let find t ?(labels = []) name = Hashtbl.find_opt t.tbl (name, norm_labels labels)

let counter_value t ?labels name =
  match find t ?labels name with Some { m_value = Counter r; _ } -> Some !r | _ -> None

let gauge_value t ?labels name =
  match find t ?labels name with Some { m_value = Gauge r; _ } -> Some !r | _ -> None

(** All metrics, sorted by (name, labels) for stable output. *)
let snapshot t =
  List.sort
    (fun a b -> compare (a.m_name, a.m_labels) (b.m_name, b.m_labels))
    t.order

let distinct_names t =
  List.sort_uniq compare (List.map (fun m -> m.m_name) t.order)

(** Merge [src] into [dst]: counters add, gauges take [src]'s value,
    histograms (same buckets) add bin counts.  Metrics absent from [dst]
    are created.  Used to aggregate per-shard registries. *)
let merge ~into:dst src =
  List.iter
    (fun m ->
      match m.m_value with
      | Counter r -> inc ~by:!r (counter dst ~help:m.m_help ~labels:m.m_labels m.m_name)
      | Gauge r -> set (gauge dst ~help:m.m_help ~labels:m.m_labels m.m_name) !r
      | Histogram h ->
        let d =
          histogram dst ~help:m.m_help ~labels:m.m_labels
            ~buckets:(Array.to_list h.h_buckets) m.m_name
        in
        Array.iteri (fun i c -> d.h_counts.(i) <- d.h_counts.(i) + c) h.h_counts;
        d.h_sum <- d.h_sum +. h.h_sum;
        d.h_count <- d.h_count + h.h_count;
        if h.h_min < d.h_min then d.h_min <- h.h_min;
        if h.h_max > d.h_max then d.h_max <- h.h_max)
    (List.rev src.order)

(* -------- JSON export -------- *)

let metric_to_json m =
  let base =
    [ ("name", Json.Str m.m_name); ("type", Json.Str (kind_name m.m_value)) ]
  in
  let labels =
    match m.m_labels with
    | [] -> []
    | ls -> [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ls)) ]
  in
  let help = if m.m_help = "" then [] else [ ("help", Json.Str m.m_help) ] in
  let value =
    match m.m_value with
    | Counter r -> [ ("value", Json.Int !r) ]
    | Gauge r -> [ ("value", Json.Float !r) ]
    | Histogram h ->
      let finite_or_zero f = if Float.is_finite f then f else 0.0 in
      [
        ("buckets", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) h.h_buckets)));
        ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.h_counts)));
        ("sum", Json.Float h.h_sum);
        ("count", Json.Int h.h_count);
        ("min", Json.Float (finite_or_zero h.h_min));
        ("max", Json.Float (finite_or_zero h.h_max));
        ("p50", Json.Float (percentile h 0.50));
        ("p95", Json.Float (percentile h 0.95));
        ("p99", Json.Float (percentile h 0.99));
      ]
  in
  Json.Obj (base @ labels @ help @ value)

(* Histograms gained min/max/p50/p95/p99 fields (and the registry object
   may carry extra top-level sections, e.g. "governor"), hence v2; see the
   "Telemetry schemas" section of the README. *)
let schema = "xmt.metrics.v2"

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("metrics", Json.List (List.map metric_to_json (snapshot t)));
    ]
