(* Multi-launch programs (§4.1) and the §3.4 correctness invariant.

   A program of several launches runs [Session.run_stream] once per
   launch on one persistent machine; a device reset is a fresh
   machine. *)

module Ast = Ptx.Ast
module B = Ptx.Builder
module Session = Gpu_runtime.Session

let layout = Gen.layout

let writer_kernel =
  let b = B.create ~params:[ "buf" ] "writer" in
  let g = B.global_tid b in
  let a = B.fresh_reg ~cls:"rd" b in
  B.mad b a (B.reg g) (B.imm 4) (B.sym "buf");
  B.st b (B.reg a) (B.reg g);
  B.finish b

let reader_kernel =
  let b = B.create ~params:[ "buf"; "out" ] "reader" in
  let g = B.global_tid b in
  let a = B.fresh_reg ~cls:"rd" b in
  B.mad b a (B.reg g) (B.imm 4) (B.sym "buf");
  let v = B.fresh_reg b in
  B.ld b v (B.reg a);
  let o = B.fresh_reg ~cls:"rd" b in
  B.mad b o (B.reg g) (B.imm 4) (B.sym "out");
  B.st b (B.reg o) (B.reg v);
  B.finish b

let racy_kernel =
  let b = B.create ~params:[ "buf" ] "racy" in
  B.st b (B.sym "buf") (Ast.Sreg Ast.Tid);
  B.finish b

let launch machine kernel args =
  (Session.run_stream ~machine kernel (Array.map Int64.of_int args))
    .Session.sr_report

let test_memory_persists_across_launches () =
  let m = Simt.Machine.create ~layout () in
  let buf = Simt.Machine.alloc_global m 256 in
  let out = Simt.Machine.alloc_global m 256 in
  let r1 = launch m writer_kernel [| buf |] in
  let r2 = launch m reader_kernel [| buf; out |] in
  (* launch boundaries synchronize: no cross-launch race *)
  Alcotest.(check int) "no races across launches" 0
    (Barracuda.Report.race_count r1 + Barracuda.Report.race_count r2);
  (* the second launch really read the first launch's data *)
  Alcotest.(check int64) "data flowed" 5L
    (Simt.Machine.peek m ~addr:(out + (4 * 5)) ~width:4)

let test_per_launch_reports () =
  let m = Simt.Machine.create ~layout () in
  let buf = Simt.Machine.alloc_global m 256 in
  let r1 = launch m writer_kernel [| buf |] in
  let r2 = launch m racy_kernel [| buf |] in
  Alcotest.(check bool) "writer clean" false (Barracuda.Report.has_race r1);
  Alcotest.(check bool) "racy flagged" true (Barracuda.Report.has_race r2)

let test_device_reset () =
  let m = Simt.Machine.create ~layout () in
  let buf = Simt.Machine.alloc_global m 256 in
  ignore (launch m writer_kernel [| buf |]);
  Alcotest.(check bool) "memory written" true
    (Simt.Machine.peek m ~addr:(buf + 8) ~width:4 <> 0L);
  let m = Simt.Machine.create ~layout () in
  let buf2 = Simt.Machine.alloc_global m 256 in
  Alcotest.(check int64) "memory cleared" 0L
    (Simt.Machine.peek m ~addr:(buf2 + 8) ~width:4);
  (* checking keeps working on the fresh device *)
  Alcotest.(check bool) "clean after reset" false
    (Barracuda.Report.has_race (launch m writer_kernel [| buf2 |]))

(* ---- §3.4 invariant ------------------------------------------------- *)

let prop_invariant_preserved =
  QCheck2.Test.make
    ~name:"the proof invariant holds after every reference-detector step"
    ~count:100 ~print:Gen.print_program Gen.gen_program (fun prog ->
      let k = Gen.kernel_of_program prog in
      let m = Simt.Machine.create ~layout () in
      let args = Gen.setup m in
      let ops, _ = Gtrace.Infer.run ~layout m k args in
      let d = Barracuda.Reference.create ~layout () in
      List.for_all
        (fun op ->
          Barracuda.Reference.step d op;
          Barracuda.Reference.invariant_holds d)
        ops)

let suite =
  [
    Alcotest.test_case "memory persists across launches" `Quick
      test_memory_persists_across_launches;
    Alcotest.test_case "per-launch reports" `Quick test_per_launch_reports;
    Alcotest.test_case "device reset" `Quick test_device_reset;
  ]
  @ List.map Gen.to_alcotest [ prop_invariant_preserved ]
