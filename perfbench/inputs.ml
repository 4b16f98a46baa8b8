(* Workload inputs: the roster kernels with their oracles, and the
   seeded tiled-stencil kernel generated with Ptx.Builder. *)

(* ---- the roster: 26 Table-1 workloads + 66 bug-suite kernels ------- *)

type oracle =
  | Table1 of Workloads.Workload.t  (** Workload.races_match *)
  | Case of Bugsuite.Case.t  (** verdict and expect_bardiv *)
  | Racy_words of int  (** exactly k racy global words, none shared *)
  | Racy of bool  (** the verdict alone (daemon submissions) *)

type item = {
  name : string;
  layout : Vclock.Layout.t;
  kernel : Ptx.Ast.kernel;  (** as built; the checks parse [ptx] *)
  setup : Simt.Machine.t -> int64 array;
  oracle : oracle;
  mutable ptx : string;  (** printed at set-up *)
}

let roster_items () =
  List.map
    (fun (w : Workloads.Workload.t) ->
      {
        name = w.Workloads.Workload.name;
        layout = w.Workloads.Workload.layout;
        kernel = w.Workloads.Workload.kernel;
        setup = w.Workloads.Workload.setup;
        oracle = Table1 w;
        ptx = "";
      })
    Workloads.Registry.all
  @ List.map
      (fun (c : Bugsuite.Case.t) ->
        {
          name = c.Bugsuite.Case.name;
          layout = c.Bugsuite.Case.layout;
          kernel = c.Bugsuite.Case.kernel;
          setup = c.Bugsuite.Case.setup;
          oracle = Case c;
          ptx = "";
        })
      Bugsuite.Cases.all

let print_items items =
  List.iter (fun it -> it.ptx <- Ptx.Printer.kernel_to_string it.kernel) items

let bardiv_reported report =
  List.exists
    (function
      | Barracuda.Report.Barrier_divergence _ -> true
      | Barracuda.Report.Race _ -> false)
    (Barracuda.Report.errors report)

(* [Ok ()] when the report is the known answer, [Error why] otherwise. *)
let judge item report =
  match item.oracle with
  | Table1 w ->
      if Workloads.Workload.races_match w report then Ok ()
      else
        Error
          (Format.asprintf "%s: expected %a" item.name
             Workloads.Workload.pp_expected w.Workloads.Workload.expected)
  | Case c ->
      let racy = Barracuda.Report.has_race report in
      let want = c.Bugsuite.Case.verdict = Bugsuite.Case.Racy in
      let bardiv = bardiv_reported report in
      if racy = want && bardiv = c.Bugsuite.Case.expect_bardiv then Ok ()
      else
        Error
          (Printf.sprintf "%s: race %b (want %b), bardiv %b (want %b)"
             item.name racy want bardiv c.Bugsuite.Case.expect_bardiv)
  | Racy want ->
      let racy = Barracuda.Report.has_race report in
      if racy = want then Ok ()
      else Error (Printf.sprintf "%s: race %b (want %b)" item.name racy want)
  | Racy_words k ->
      let shared, global = Workloads.Workload.racy_word_counts report in
      if shared = 0 && global = k then Ok ()
      else
        Error
          (Printf.sprintf "%s: %d shared + %d global racy words (want 0 + %d)"
             item.name shared global k)

(* ---- the tiled stencil ----------------------------------------------- *)

let tpb = 128

(* T time steps of: shared store, bar.sync, a tid>0 divergent read of
   the left neighbour's cell, bar.sync.  Then each boundary [b] in
   [racy] gets a write-write race: the last thread of block b and the
   first thread of block b+1 both store halo[b], unsynchronized. *)
let stencil_kernel ~steps ~racy =
  let b =
    Ptx.Builder.create ~params:[ "t_in"; "t_out"; "halo" ]
      ~shared:[ ("tile", tpb * 4) ]
      "tiled_stencil"
  in
  let open Ptx.Builder in
  let tid = Ptx.Ast.Sreg Ptx.Ast.Tid in
  let ctaid = Ptx.Ast.Sreg Ptx.Ast.Ctaid in
  let g = global_tid b in
  let v = Workloads.Common.load_global b ~base:"t_in" (reg g) in
  let acc = fresh_reg b in
  mov b acc (reg v);
  let sa = Workloads.Common.shared_addr b ~base:"tile" tid in
  let step = fresh_reg b in
  mov b step (imm 0);
  while_ b Ptx.Ast.C_lt
    (fun _ -> (reg step, imm steps))
    (fun b ->
      st ~space:Ptx.Ast.Shared b (reg sa) (reg acc);
      bar b;
      if_ b Ptx.Ast.C_gt tid (imm 0) (fun b ->
          let left = fresh_reg ~cls:"rd" b in
          binop b Ptx.Ast.B_sub left (reg sa) (imm 4);
          let l = fresh_reg b in
          ld ~space:Ptx.Ast.Shared b l (reg left);
          binop b Ptx.Ast.B_add acc (reg acc) (reg l));
      bar b;
      binop b Ptx.Ast.B_add step (reg step) (imm 1));
  List.iter
    (fun bnd ->
      let edge blk lane =
        if_ b Ptx.Ast.C_eq ctaid (imm blk) (fun b ->
            if_ b Ptx.Ast.C_eq tid (imm lane) (fun b ->
                st ~offset:(4 * bnd) b (sym "halo") (reg acc)))
      in
      edge bnd (tpb - 1);
      edge (bnd + 1) 0)
    racy;
  Workloads.Common.store_global_result b ~base:"t_out" ~index:(reg g) (reg acc);
  finish b

(* [k] distinct seeded block boundaries out of [blocks - 1]. *)
let racy_boundaries rng ~blocks ~k =
  let all = Array.init (blocks - 1) Fun.id in
  let picked = Array.sub (Util.shuffle rng all) 0 k in
  Array.sort compare picked;
  Array.to_list picked

let stencil_item rng ~blocks ~steps ~k =
  let racy = racy_boundaries rng ~blocks ~k in
  let layout = Vclock.Layout.make ~warp_size:32 ~threads_per_block:tpb ~blocks in
  let n = blocks * tpb in
  {
    name = Printf.sprintf "tiled_stencil_%dx%d_T%d" blocks tpb steps;
    layout;
    kernel = stencil_kernel ~steps ~racy;
    setup =
      (fun m ->
        let words k = Int64.of_int (Simt.Machine.alloc_global m (4 * k)) in
        let t_in = words n in
        let t_out = words n in
        let halo = words blocks in
        [| t_in; t_out; halo |]);
    oracle = Racy_words k;
    ptx = "";
  }
