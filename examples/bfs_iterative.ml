(* Iterative BFS across kernel launches (a multi-launch Session).

     dune exec examples/bfs_iterative.exe

   Real BFS codes launch their frontier-expansion kernel once per level
   with the host checking a done-flag in between — the lifecycle
   BARRACUDA's runtime has to live through (§4.1).  Each launch is
   instrumented, queued and race-checked; device memory persists across
   launches; launches are serialized so levels never race with one
   another.  The graph is a binary tree, so within a level every child
   has a unique parent and the kernel is race-free. *)

module Ast = Ptx.Ast
module B = Ptx.Builder
module Session = Gpu_runtime.Session

let layout = Vclock.Layout.make ~warp_size:32 ~threads_per_block:64 ~blocks:2
let nodes = Vclock.Layout.total_threads layout

(* one BFS level: expand every frontier node to its children *)
let level_kernel =
  let b = B.create ~params:[ "frontier"; "next"; "cost"; "more" ] "bfs_level" in
  let g = B.global_tid b in
  let fa = B.fresh_reg ~cls:"rd" b in
  B.mad b fa (B.reg g) (B.imm 4) (B.sym "frontier");
  let f = B.fresh_reg b in
  B.ld b f (B.reg fa);
  B.if_ b Ast.C_ne (B.reg f) (B.imm 0) (fun b ->
      B.st b (B.reg fa) (B.imm 0);
      let my_cost = B.fresh_reg b in
      let ca = B.fresh_reg ~cls:"rd" b in
      B.mad b ca (B.reg g) (B.imm 4) (B.sym "cost");
      B.ld b my_cost (B.reg ca);
      let nc = B.fresh_reg b in
      B.binop b Ast.B_add nc (B.reg my_cost) (B.imm 1);
      List.iter
        (fun off ->
          let child = B.fresh_reg b in
          B.mad b child (B.reg g) (B.imm 2) (B.imm off);
          B.if_ b Ast.C_lt (B.reg child) (B.imm nodes) (fun b ->
              let na = B.fresh_reg ~cls:"rd" b in
              B.mad b na (B.reg child) (B.imm 4) (B.sym "next");
              B.st b (B.reg na) (B.imm 1);
              let cca = B.fresh_reg ~cls:"rd" b in
              B.mad b cca (B.reg child) (B.imm 4) (B.sym "cost");
              B.st b (B.reg cca) (B.reg nc);
              (* tell the host there is another level; atomically, so
                 frontier nodes in different warps cannot race (the
                 plain-store version of this flag is the SHOC bug) *)
              let o = B.fresh_reg b in
              B.atom b Ast.A_exch o (B.sym "more") (B.imm 1)))
        [ 1; 2 ]);
  B.finish b

let () =
  let s = Session.create ~layout () in
  let m = Session.machine s in
  let alloc n = Simt.Machine.alloc_global m (4 * n) in
  let frontier = alloc nodes and next = alloc nodes in
  let cost = alloc nodes and more = alloc 1 in
  Simt.Machine.poke m ~addr:frontier ~width:4 1L; (* root in the frontier *)
  let level = ref 0 in
  let continue_ = ref true in
  (* the host loop: launch, read the flag, swap frontiers *)
  let frontier = ref frontier and next = ref next in
  while !continue_ && !level < 32 do
    Simt.Machine.poke m ~addr:more ~width:4 0L;
    let result =
      Session.launch s level_kernel
        [|
          Int64.of_int !frontier; Int64.of_int !next; Int64.of_int cost;
          Int64.of_int more;
        |]
    in
    assert (result.Session.sr_machine_result.Simt.Machine.status
            = Simt.Machine.Completed);
    continue_ := Simt.Machine.peek m ~addr:more ~width:4 <> 0L;
    let f = !frontier in
    frontier := !next;
    next := f;
    incr level
  done;
  Format.printf "BFS finished after %d levels (%d launches checked)@.@."
    !level (Session.launches s);
  List.iteri
    (fun i (name, report) ->
      Format.printf "launch %2d (%s): %s@." i name
        (if Barracuda.Report.has_race report then "RACES" else "race-free"))
    (Session.reports s);
  Format.printf "@.total races across the whole run: %d@."
    (Session.total_races s);
  (* spot-check the computed costs: node n is at depth floor(log2(n+1)) *)
  let depth n =
    let rec go n d = if n = 0 then d else go ((n - 1) / 2) (d + 1) in
    go n 0
  in
  let ok = ref true in
  for n = 0 to nodes - 1 do
    let c = Simt.Machine.peek m ~addr:(cost + (4 * n)) ~width:4 in
    if Int64.to_int c <> depth n then ok := false
  done;
  Format.printf "cost array correct: %b@." !ok
