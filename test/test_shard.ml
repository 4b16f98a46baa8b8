(* The sharded detection engine (lib/shard): broadcast-everything
   transport with partitioned shadow checks.  The load-bearing claim is
   bitwise verdict parity — for every bug-suite case and every shard
   count, the merged sharded report must list exactly the races the
   serial pipeline lists, which in turn must agree with the reference
   semantics. *)

module Session = Gpu_runtime.Session
module SPipeline = Shard.Pipeline
module Report = Barracuda.Report

let shard_counts = [ 1; 2; 4; 7 ]

(* ---- race-set extraction (as in test_detector) ------------------- *)

type race_key = {
  loc : Gtrace.Loc.t;
  prev_tid : int;
  prev_kind : Report.access_kind;
  cur_tid : int;
  cur_kind : Report.access_kind;
}

let race_set report =
  Report.errors report
  |> List.filter_map (function
       | Report.Race r ->
           Some
             {
               loc = r.Report.loc;
               prev_tid = r.Report.prev_tid;
               prev_kind = r.Report.prev_kind;
               cur_tid = r.Report.cur_tid;
               cur_kind = r.Report.cur_kind;
             }
       | Report.Barrier_divergence _ -> None)
  |> List.sort_uniq Stdlib.compare

(* Parity must hold on the full stream with no report cap in the way:
   a shard hitting [max_reports] would under-report legitimately. *)
let detector_config =
  { Barracuda.Detector.default_config with max_reports = 100000 }

let serial_report (c : Bugsuite.Case.t) =
  let m = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup m in
  let kernel = c.Bugsuite.Case.kernel in
  let r =
    Session.run_stream ~detector:detector_config
      ~inst:(Instrument.Pass.instrument ~prune:false ~static:true kernel)
      ~machine:m kernel args
  in
  r.Session.sr_report

let sharded_result ?fault ~shards (c : Bugsuite.Case.t) =
  let m = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup m in
  let config =
    {
      SPipeline.default_config with
      SPipeline.shards;
      prune = false;
      detector = detector_config;
      fault;
    }
  in
  SPipeline.run_sharded ~config ~machine:m c.Bugsuite.Case.kernel args

let reference_racy (c : Bugsuite.Case.t) =
  let m = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup m in
  let ops, _ =
    Gtrace.Infer.run ~layout:c.Bugsuite.Case.layout m c.Bugsuite.Case.kernel
      args
  in
  let d =
    Barracuda.Reference.create ~max_reports:100000
      ~layout:c.Bugsuite.Case.layout ()
  in
  Barracuda.Reference.run d ops;
  Report.has_race (Barracuda.Reference.report d)

(* ---- full-bugsuite parity at every shard count ------------------- *)

let test_bugsuite_parity () =
  List.iter
    (fun (c : Bugsuite.Case.t) ->
      let expected = reference_racy c in
      let serial = serial_report c in
      let serial_races = race_set serial in
      Alcotest.(check bool)
        (c.Bugsuite.Case.name ^ ": serial pipeline matches reference")
        expected
        (Report.has_race serial);
      List.iter
        (fun shards ->
          let r = sharded_result ~shards c in
          let merged = r.SPipeline.report in
          Alcotest.(check bool)
            (Printf.sprintf "%s @ %d shards: verdict matches reference"
               c.Bugsuite.Case.name shards)
            expected (Report.has_race merged);
          if race_set merged <> serial_races then
            Alcotest.failf "%s @ %d shards: race set differs from serial"
              c.Bugsuite.Case.name shards)
        shard_counts)
    Bugsuite.Cases.all

(* ---- the router is a true partition ------------------------------ *)

let gen_cell =
  QCheck2.Gen.(
    let* shards = int_range 1 16 in
    let* range_log2 = int_range 0 12 in
    let* space =
      oneofl [ Ptx.Ast.Global; Ptx.Ast.Shared; Ptx.Ast.Local; Ptx.Ast.Param ]
    in
    let* region = int_range 0 64 in
    let* index = int_range 0 (1 lsl 20) in
    return (shards, range_log2, space, region, index))

let prop_router_partition =
  QCheck2.Test.make ~name:"every shadow cell has exactly one owner"
    ~count:2000
    ~print:(fun (shards, rl, _, region, index) ->
      Printf.sprintf "shards=%d range_log2=%d region=%d index=%d" shards rl
        region index)
    gen_cell
    (fun (shards, range_log2, space, region, index) ->
      let router = Shard.Router.make ~range_log2 ~shards () in
      let owner = Shard.Router.owner router ~space ~region ~index in
      let owners =
        List.init shards (fun s ->
            if Shard.Router.owns router ~shard:s space region index then [ s ]
            else [])
        |> List.concat
      in
      owner >= 0 && owner < shards && owners = [ owner ])

let prop_router_range_locality =
  QCheck2.Test.make
    ~name:"cells within one range land on the same shard" ~count:500
    ~print:(fun (shards, rl, _, region, index) ->
      Printf.sprintf "shards=%d range_log2=%d region=%d index=%d" shards rl
        region index)
    gen_cell
    (fun (shards, range_log2, space, region, index) ->
      let router = Shard.Router.make ~range_log2 ~shards () in
      let range = 1 lsl range_log2 in
      let base = index land lnot (range - 1) in
      let o = Shard.Router.owner router ~space ~region ~index:base in
      List.for_all
        (fun d ->
          Shard.Router.owner router ~space ~region ~index:(base + d) = o)
        (List.filter (fun d -> d < range) [ 0; 1; range - 1 ]))

(* ---- exactly-once, in-order broadcast delivery ------------------- *)

let test_broadcast_delivery () =
  let w = Workloads.Registry.find "backprop" in
  let m = Workloads.Workload.machine w in
  let args = w.Workloads.Workload.setup m in
  let config =
    {
      SPipeline.default_config with
      SPipeline.shards = 4;
      prune = false;
      detector = detector_config;
    }
  in
  let r =
    SPipeline.run_sharded ~config ~machine:m w.Workloads.Workload.kernel args
  in
  let stream = r.SPipeline.records in
  Array.iteri
    (fun i det ->
      let s = Barracuda.Detector.stats det in
      Alcotest.(check int)
        (Printf.sprintf "shard %d consumed the full stream" i)
        stream s.Barracuda.Detector.records_processed)
    r.SPipeline.detectors;
  let integ = Report.integrity r.SPipeline.report in
  Alcotest.(check bool)
    "no integrity anomalies on any shard" true
    (integ.Report.corrupt = 0 && integ.Report.gaps = 0
    && integ.Report.stale = 0 && integ.Report.desync = 0);
  Alcotest.(check bool) "verdict not degraded" false
    (Report.degraded r.SPipeline.report)

(* ---- merged reports are deterministic ---------------------------- *)

let test_merge_deterministic () =
  let c =
    List.find
      (fun (c : Bugsuite.Case.t) -> c.Bugsuite.Case.verdict = Bugsuite.Case.Racy)
      Bugsuite.Cases.all
  in
  let errors () =
    Report.errors (sharded_result ~shards:4 c).SPipeline.report
  in
  let a = errors () and b = errors () in
  Alcotest.(check bool) "identical error lists across runs" true (a = b)

(* ---- a doomed shard fails the job loudly ------------------------- *)

let test_shard_crash_is_loud () =
  let w = Workloads.Registry.find "backprop" in
  let m = Workloads.Workload.machine w in
  let args = w.Workloads.Workload.setup m in
  let plan =
    Fault.Plan.make
      {
        Fault.Plan.none with
        Fault.Plan.seed = 7;
        shard_crash_shards = [ 1 ];
        shard_crash_after = 3;
      }
  in
  let config =
    {
      SPipeline.default_config with
      SPipeline.shards = 3;
      fault = Some plan;
    }
  in
  match
    SPipeline.run_sharded ~config ~machine:m w.Workloads.Workload.kernel args
  with
  | _ -> Alcotest.fail "sharded run completed despite a dead shard"
  | exception Shard.Engine.Shard_crashed i ->
      Alcotest.(check int) "the doomed shard is named" 1 i;
      Alcotest.(check int) "the injection was accounted" 1
        (Fault.Plan.injected plan).Fault.Plan.shard_crashes

let suite =
  [
    Alcotest.test_case "bugsuite parity at 1/2/4/7 shards" `Quick
      test_bugsuite_parity;
    Alcotest.test_case "broadcast delivers exactly once per shard" `Quick
      test_broadcast_delivery;
    Alcotest.test_case "merge is deterministic" `Quick test_merge_deterministic;
    Alcotest.test_case "shard crash fails the job loudly" `Quick
      test_shard_crash_is_loud;
    Gen.to_alcotest prop_router_partition;
    Gen.to_alcotest prop_router_range_locality;
  ]
