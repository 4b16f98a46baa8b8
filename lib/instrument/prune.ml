module Sset = Set.Make (String)

type key = {
  store : bool;
  space : Ptx.Ast.space;
  base : Ptx.Ast.operand;
  offset : int;
  width : int;
}

module Kset = Set.Make (struct
  type t = key

  let compare = Stdlib.compare
end)

let access_key = function
  | Ptx.Ast.Ld { space; width; addr; _ } ->
      Some
        {
          store = false;
          space;
          base = addr.Ptx.Ast.base;
          offset = addr.Ptx.Ast.offset;
          width;
        }
  | Ptx.Ast.St { space; width; addr; _ } ->
      Some
        {
          store = true;
          space;
          base = addr.Ptx.Ast.base;
          offset = addr.Ptx.Ast.offset;
          width;
        }
  | Ptx.Ast.Atom _ ->
      (* atomics are never pruned: every RMW is a distinct event *)
      None
  | _ -> None

let base_register key =
  match key.base with Ptx.Ast.Reg r -> Some r | _ -> None

let redundant ?exclude (k : Ptx.Ast.kernel) =
  let g = Cfg.Graph.of_kernel k in
  let n = Array.length k.Ptx.Ast.body in
  let excluded i =
    match exclude with Some mask -> mask.(i) | None -> false
  in
  let out = Array.make n false in
  Array.iter
    (fun (b : Cfg.Graph.block) ->
      let logged = ref Kset.empty in
      for i = b.Cfg.Graph.first to b.Cfg.Graph.last do
        let insn = k.Ptx.Ast.body.(i) in
        (* Fences and barriers reset the window: accesses around them
           have synchronization roles that must stay visible. *)
        (match insn.Ptx.Ast.kind with
        | Ptx.Ast.Membar _ | Ptx.Ast.Bar_sync _ -> logged := Kset.empty
        | _ -> ());
        (* Guarded accesses execute under a mask that may differ from the
           earlier access, so they are never pruned. *)
        (match access_key insn.Ptx.Ast.kind with
        | Some key when insn.Ptx.Ast.guard = None && not (excluded i) ->
            if Kset.mem key !logged then out.(i) <- true
            else logged := Kset.add key !logged
        | Some _ | None -> ());
        (* Overwriting a register kills the keys based on it. *)
        match Ptx.Ast.register_written insn with
        | Some r ->
            logged :=
              Kset.filter
                (fun key -> base_register key <> Some r)
                !logged
        | None -> ()
      done)
    (Cfg.Graph.blocks g);
  out
