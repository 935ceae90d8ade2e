(* The registry of versioned record schemas and the export kinds that
   produce them — see schema.mli. *)

type entry = {
  e_kind : string option;
  e_schema : string option;
  e_doc : string;
}

(* One row per export kind or standalone schema.  Order is the order
   the CLI lists kinds in its error message, so keep it stable. *)
let table =
  [
    {
      e_kind = Some "stats";
      e_schema = Some "xmt.metrics.v2";
      e_doc = "metrics envelope: activity counters, hit rates, host throughput";
    };
    {
      e_kind = Some "trace";
      e_schema = None;  (* Chrome trace-event JSON, an external format *)
      e_doc = "Chrome trace-event spans (cycle-accurate mode only)";
    };
    {
      e_kind = Some "races";
      e_schema = Some "xmt.races.v1";
      e_doc = "race & memory-model report (static + dynamic layers)";
    };
    {
      e_kind = Some "profile";
      e_schema = Some "xmt.profile.v1";
      e_doc = "CPI-stack report (cycle-accurate mode; merged under --campaign)";
    };
    {
      e_kind = Some "predict";
      e_schema = Some "xmt.predict.v1";
      e_doc = "analytical cycle prediction (predict mode only)";
    };
    {
      e_kind = Some "reuseprofile";
      e_schema = Some "xmt.reuseprofile.v1";
      e_doc = "harvested reuse/instruction-mix profile (predict mode only)";
    };
    {
      e_kind = Some "campaign";
      e_schema = Some "xmt.campaign.v1";
      e_doc = "campaign report (with --campaign)";
    };
    {
      e_kind = Some "campaign-det";
      e_schema = Some "xmt.campaign.v1";
      e_doc = "campaign report without host-dependent fields";
    };
    (* schemas with no --export kind *)
    {
      e_kind = None;
      e_schema = Some "xmt.events.v1";
      e_doc = "live NDJSON telemetry stream (--stream)";
    };
    {
      e_kind = None;
      e_schema = Some "xmt.bench.v1";
      e_doc = "bench harness BENCH_*.json records";
    };
    {
      e_kind = None;
      e_schema = Some "xmt.calibration.v1";
      e_doc = "persisted prediction-model calibration fit";
    };
    {
      e_kind = None;
      e_schema = Some "xmt.timings.v1";
      e_doc = "compiler phase timings (xmtcc --timings-json)";
    };
    {
      e_kind = None;
      e_schema = Some "xmt.serve.v1";
      e_doc = "xmtserved wire protocol";
    };
  ]

let export_kinds = List.filter_map (fun e -> e.e_kind) table

let is_export_kind k = List.mem k export_kinds

let export_kinds_doc = String.concat "|" export_kinds

let schemas =
  List.sort_uniq compare (List.filter_map (fun e -> e.e_schema) table)

let is_schema s = List.mem s schemas

let schema_of_kind k =
  List.find_map
    (fun e -> if e.e_kind = Some k then e.e_schema else None)
    table
