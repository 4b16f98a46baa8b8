(* The static race analysis (lib/static): affine address
   classification, barrier phases, and the three verdicts.  The
   load-bearing claim is soundness — dropping the logging for every
   [Safe] access must leave the detected race set bitwise unchanged on
   the whole bug suite, serial and sharded. *)

module Session = Gpu_runtime.Session
module SPipeline = Shard.Pipeline
module Report = Barracuda.Report
module A = Static.Analysis

(* ---- race-set extraction (as in test_shard) ---------------------- *)

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

let detector_config =
  { Barracuda.Detector.default_config with max_reports = 100000 }

(* Block-local pruning is off in both runs so the only difference is
   the static tier — the property under test in isolation. *)
let serial_report ~static (c : Bugsuite.Case.t) =
  let m = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup m in
  let kernel = c.Bugsuite.Case.kernel in
  let r =
    Session.run_stream ~detector:detector_config
      ~inst:(Instrument.Pass.instrument ~prune:false ~static kernel)
      ~machine:m kernel args
  in
  r.Session.sr_report

let sharded_report ~static ~shards (c : Bugsuite.Case.t) =
  let m = Simt.Machine.create ~layout:c.Bugsuite.Case.layout () in
  let args = c.Bugsuite.Case.setup m in
  let config =
    {
      SPipeline.default_config with
      SPipeline.shards;
      prune = false;
      static_prune = static;
      detector = detector_config;
    }
  in
  let r =
    SPipeline.run_sharded ~config ~machine:m c.Bugsuite.Case.kernel args
  in
  r.SPipeline.report

(* ---- affine classification --------------------------------------- *)

let parse src = Ptx.Parser.kernel_of_string src

let vecadd_src =
  {|
.visible .entry vecadd (.param .u64 a, .param .u64 b)
{
    mad.lo.s64 %rdt, %ctaid.x, %ntid.x, %tid.x;
    mad.lo.s64 %rda, %rdt, 4, a;
    mad.lo.s64 %rdb, %rdt, 4, b;
    ld.global.u32 %r1, [%rda];
    ld.global.u32 %r2, [%rdb];
    add.s32 %r3, %r1, %r2;
    st.global.u32 [%rda], %r3;
    ret;
}
|}

let test_vecadd_all_safe () =
  let a = A.analyze (parse vecadd_src) in
  let safe, racy, unknown = A.counts a in
  Alcotest.(check (triple int int int)) "3 safe, nothing else" (3, 0, 0)
    (safe, racy, unknown);
  Alcotest.(check bool) "flat-gtid accesses are lane-affine" true
    (A.klass a 3 = A.Lane_affine);
  (* The read-write base prunes as disjoint, the read-only one as
     read-only. *)
  Alcotest.(check bool) "a[] is disjoint" true
    (A.verdict a 3 = Some (A.Safe A.Disjoint_footprints));
  Alcotest.(check bool) "b[] is read-only" true
    (A.verdict a 4 = Some (A.Safe A.Read_only));
  Alcotest.(check bool) "no racy pairs" true (A.pairs a = [])

(* Control flow must not defeat the affine dataflow: the same
   per-thread accesses behind a guarded bounds-check branch (three
   blocks) keep their disjointness proofs.  Regression test for the
   fixpoint seeding bug that pre-seeded the entry block's in state,
   never computed its out state, and so left every later block at
   Top. *)
let vecadd_branch_src =
  {|
.visible .entry vecadd_branch (.param .u64 a)
{
    mad.lo.s64 %rdt, %ctaid.x, %ntid.x, %tid.x;
    setp.ge.s64 %p1, %rdt, 1024;
    @%p1 bra L_done;
    mad.lo.s64 %rda, %rdt, 4, a;
    ld.global.u32 %r1, [%rda];
    add.s32 %r2, %r1, 1;
    st.global.u32 [%rda], %r2;
L_done:
    ret;
}
|}

let test_branch_keeps_disjoint () =
  let a = A.analyze (parse vecadd_branch_src) in
  Alcotest.(check bool) "load past the branch is lane-affine" true
    (A.klass a 4 = A.Lane_affine);
  Alcotest.(check bool) "store past the branch is disjoint-safe" true
    (A.verdict a 6 = Some (A.Safe A.Disjoint_footprints));
  let safe, racy, unknown = A.counts a in
  Alcotest.(check (triple int int int)) "both accesses safe" (2, 0, 0)
    (safe, racy, unknown)

(* The dual: a diamond whose paths leave different values in the
   address register must join to Top, not pick a side — the store
   falls back to dynamic checking. *)
let diamond_src =
  {|
.visible .entry diamond (.param .u64 out)
{
    .shared .align 4 .b8 buf[64];
    mov.s32 %r1, 1;
    setp.gt.s32 %p1, %tid.x, 15;
    @%p1 bra L_hi;
    mov.s64 %rdo, buf;
    bra.uni L_join;
L_hi:
    add.s64 %rdo, buf, 4;
L_join:
    st.shared.u32 [%rdo], %r1;
    ret;
}
|}

let test_diamond_join_is_top () =
  let a = A.analyze (parse diamond_src) in
  Alcotest.(check bool) "conflicting join leaves the address unknown" true
    (A.klass a 6 = A.Unknown_addr);
  Alcotest.(check bool) "store is left for dynamic checking" true
    (A.verdict a 6 = Some A.Unknown)

let uniform_safe_src =
  {|
.visible .entry uniform_safe (.param .u64 cfg, .param .u64 out)
{
    .shared .align 4 .b8 tile[256];
    ld.global.u32 %r1, [cfg];
    mad.lo.s64 %rds, %tid.x, 4, tile;
    st.shared.u32 [%rds], %r1;
    bar.sync 0;
    setp.gt.s32 %p1, %tid.x, 0;
    @%p1 ld.shared.u32 %r2, [%rds+-4];
    mad.lo.s64 %rdt, %ctaid.x, %ntid.x, %tid.x;
    mad.lo.s64 %rdo, %rdt, 4, out;
    st.global.u32 [%rdo], %r2;
    ret;
}
|}

let test_uniform_safe_phased () =
  let a = A.analyze (parse uniform_safe_src) in
  let safe, racy, unknown = A.counts a in
  Alcotest.(check (triple int int int)) "all four accesses safe" (4, 0, 0)
    (safe, racy, unknown);
  Alcotest.(check bool) "the uniform config load is uniform" true
    (A.klass a 0 = A.Thread_uniform);
  (* The tile store conflicts with the neighbour read on addresses but
     the barrier separates their phases. *)
  Alcotest.(check bool) "tile store is barrier-phased" true
    (A.verdict a 2 = Some (A.Safe A.Barrier_phased));
  Alcotest.(check bool) "neighbour read is barrier-phased" true
    (A.verdict a 5 = Some (A.Safe A.Barrier_phased))

(* Same kernel without the barrier: the store/read pair can no longer
   be proved phased, so both fall back to dynamic checking. *)
let test_missing_barrier_not_safe () =
  let src =
    String.concat ""
      (String.split_on_char '\n' uniform_safe_src
      |> List.filter (fun l -> not (String.trim l = "bar.sync 0;"))
      |> List.map (fun l -> l ^ "\n"))
  in
  let a = A.analyze (parse src) in
  let safe, _racy, unknown = A.counts a in
  Alcotest.(check int) "store and read left for dynamic checking" 2 unknown;
  Alcotest.(check int) "config load and output store still safe" 2 safe

let static_racy_src =
  {|
.visible .entry static_racy (.param .u64 out)
{
    .shared .align 4 .b8 flag[16];
    st.shared.u32 [flag], 1;
    ld.shared.u32 %r1, [flag];
    st.global.u32 [out], %r1;
    ret;
}
|}

let layout ?(warp = 32) ~blocks ~tpb () =
  Vclock.Layout.make ~warp_size:warp ~threads_per_block:tpb ~blocks

let test_static_racy_verdict () =
  let a = A.analyze (parse static_racy_src) in
  Alcotest.(check bool) "store verdict is racy" true
    (A.verdict a 0 = Some A.Racy);
  Alcotest.(check bool) "load verdict is racy" true
    (A.verdict a 1 = Some A.Racy);
  Alcotest.(check int) "one racy pair" 1 (List.length (A.pairs a));
  (* Shared-memory uniform conflicts need two warps in one block:
     intra-warp pairs are lockstep-ordered, so a single-warp block
     cannot materialize the race. *)
  Alcotest.(check bool) "racy for two warps per block" true
    (A.provably_racy a ~layout:(layout ~blocks:2 ~tpb:64 ()));
  Alcotest.(check bool) "not racy for one warp per block" false
    (A.provably_racy a ~layout:(layout ~blocks:4 ~tpb:32 ()));
  match A.report a ~layout:(layout ~blocks:2 ~tpb:64 ()) with
  | None -> Alcotest.fail "expected a static report"
  | Some r ->
      Alcotest.(check bool) "static report carries the race" true
        (Report.has_race r)

(* The static verdict must agree with the dynamic detector end to
   end: the same kernel, executed, reports a race at the same shared
   address. *)
let test_static_racy_dynamic_agreement () =
  let l = layout ~blocks:2 ~tpb:64 () in
  let m = Simt.Machine.create ~layout:l () in
  let kernel = parse static_racy_src in
  let out = Int64.of_int (Simt.Machine.alloc_global m 64) in
  let r =
    Session.run_stream ~detector:detector_config
      ~inst:(Instrument.Pass.instrument ~prune:true ~static:true kernel)
      ~machine:m kernel [| out |]
  in
  Alcotest.(check bool) "dynamic detector agrees" true
    (Report.has_race r.Session.sr_report)

(* ---- soundness over the bug suite -------------------------------- *)

(* For every case (the 66-program suite plus the predictive family),
   the race set with static pruning must be bitwise identical to the
   unpruned one — serial and sharded.  This is the proof obligation
   for dropping logging: no seeded racy access may be classified
   Safe. *)
let test_bugsuite_parity_serial () =
  List.iter
    (fun (c : Bugsuite.Case.t) ->
      let baseline = race_set (serial_report ~static:false c) in
      let pruned = race_set (serial_report ~static:true c) in
      if baseline <> pruned then
        Alcotest.failf "%s: static pruning changed the serial race set"
          c.Bugsuite.Case.name)
    (Bugsuite.Cases.all @ Bugsuite.Cases.predictive)

let test_bugsuite_parity_sharded () =
  List.iter
    (fun (c : Bugsuite.Case.t) ->
      let baseline = race_set (sharded_report ~static:false ~shards:4 c) in
      let pruned = race_set (sharded_report ~static:true ~shards:4 c) in
      if baseline <> pruned then
        Alcotest.failf "%s: static pruning changed the sharded race set"
          c.Bugsuite.Case.name)
    (Bugsuite.Cases.all @ Bugsuite.Cases.predictive)

(* Direct verdict checks against the suite's ground truth: a kernel
   whose accesses are all Safe must be a race-free case, and a kernel
   the analysis proves racy for its case layout must be a racy case. *)
let test_bugsuite_verdicts_consistent () =
  List.iter
    (fun (c : Bugsuite.Case.t) ->
      let a = A.analyze c.Bugsuite.Case.kernel in
      let safe, racy, unknown = A.counts a in
      if racy = 0 && unknown = 0 && safe > 0 then
        Alcotest.(check bool)
          (c.Bugsuite.Case.name ^ ": all-safe kernel must be race-free")
          true
          (c.Bugsuite.Case.verdict = Bugsuite.Case.Race_free);
      if A.provably_racy a ~layout:c.Bugsuite.Case.layout then
        Alcotest.(check bool)
          (c.Bugsuite.Case.name ^ ": provably-racy kernel must be racy")
          true
          (c.Bugsuite.Case.verdict = Bugsuite.Case.Racy))
    (Bugsuite.Cases.all @ Bugsuite.Cases.predictive)

(* ---- the service fast path --------------------------------------- *)

let submit ?(static = true) src =
  { (Service.Protocol.submit_defaults ~kind:Service.Protocol.Check src)
    with Service.Protocol.static }

let test_service_static_verdict () =
  let cache = Service.Cache.create ~capacity:4 () in
  (* The probe is a pure cache peek: a kernel never seen before takes
     the queued path even when provably racy — heavy analysis work
     never runs on the probing (connection) thread. *)
  Alcotest.(check bool) "cold cache: no instant answer" true
    (Service.Exec.static_verdict ~cache ~job:0 (submit static_racy_src)
    = None);
  (* The queued executor short-circuits statically and warms the
     cache... *)
  (match Service.Exec.run ~cache ~job:7 (submit static_racy_src) with
  | Service.Protocol.Result { outcome; job; _ } ->
      Alcotest.(check bool) "run short-circuits statically" true
        outcome.Service.Protocol.static;
      Alcotest.(check int) "run keeps its job id" 7 job
  | _ -> Alcotest.fail "expected a result from run");
  (* ...after which the probe answers without execution. *)
  (match Service.Exec.static_verdict ~cache ~job:3 (submit static_racy_src) with
  | Some (Service.Protocol.Result { outcome; _ }) ->
      Alcotest.(check bool) "verdict is racy" true
        (outcome.Service.Protocol.verdict = Service.Protocol.Racy);
      Alcotest.(check bool) "flagged static" true
        outcome.Service.Protocol.static;
      Alcotest.(check bool) "counted as a cache hit" true
        outcome.Service.Protocol.cache_hit
  | _ -> Alcotest.fail "expected an instant racy result");
  (* ...but not when the client disabled the analysis... *)
  Alcotest.(check bool) "no probe with static off" true
    (Service.Exec.static_verdict ~cache ~job:0
       (submit ~static:false static_racy_src)
    = None);
  (* ...and race-free or unprovable kernels take the queued path even
     once cached. *)
  ignore (Service.Exec.run ~cache ~job:8 (submit vecadd_src));
  Alcotest.(check bool) "no probe for a safe kernel" true
    (Service.Exec.static_verdict ~cache ~job:0 (submit vecadd_src) = None);
  Alcotest.(check bool) "no probe for garbage (queued path reports it)" true
    (Service.Exec.static_verdict ~cache ~job:0 (submit "not ptx") = None)

(* ---- instrumentation wiring -------------------------------------- *)

let test_pass_static_tier () =
  let k = parse vecadd_src in
  let both_off = Instrument.Pass.instrument ~prune:false ~static:false k in
  let static_on = Instrument.Pass.instrument ~prune:false ~static:true k in
  Alcotest.(check int) "no pruning with both tiers off" 0
    (Instrument.Stats.pruned both_off.Instrument.Pass.stats);
  Alcotest.(check int) "static tier drops all three accesses" 3
    static_on.Instrument.Pass.stats.Instrument.Stats.pruned_static;
  Alcotest.(check int) "block tier idle" 0
    static_on.Instrument.Pass.stats.Instrument.Stats.pruned_block;
  (* A statically pruned access keeps its instruction — only its
     logging call disappears, so the instrumented body shrinks. *)
  Alcotest.(check bool) "pruning removes logging instructions" true
    (Array.length static_on.Instrument.Pass.kernel.Ptx.Ast.body
    < Array.length both_off.Instrument.Pass.kernel.Ptx.Ast.body)

let suite =
  [
    Alcotest.test_case "vecadd: every access safe" `Quick test_vecadd_all_safe;
    Alcotest.test_case "branchy vecadd keeps its disjointness proof" `Quick
      test_branch_keeps_disjoint;
    Alcotest.test_case "diamond join falls back to unknown" `Quick
      test_diamond_join_is_top;
    Alcotest.test_case "barrier-phased tile is safe" `Quick
      test_uniform_safe_phased;
    Alcotest.test_case "missing barrier defeats the phase proof" `Quick
      test_missing_barrier_not_safe;
    Alcotest.test_case "uniform shared conflict is provably racy" `Quick
      test_static_racy_verdict;
    Alcotest.test_case "static racy verdict agrees with execution" `Quick
      test_static_racy_dynamic_agreement;
    Alcotest.test_case "bugsuite race-set parity, serial" `Slow
      test_bugsuite_parity_serial;
    Alcotest.test_case "bugsuite race-set parity, 4 shards" `Slow
      test_bugsuite_parity_sharded;
    Alcotest.test_case "verdicts consistent with ground truth" `Quick
      test_bugsuite_verdicts_consistent;
    Alcotest.test_case "service static fast path" `Quick
      test_service_static_verdict;
    Alcotest.test_case "instrument static tier" `Quick test_pass_static_tier;
  ]
