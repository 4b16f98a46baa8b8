type access_kind = Read | Write | Atomic_rmw
type race_class = Intra_warp | Intra_block | Inter_block

type race = {
  loc : Gtrace.Loc.t;
  prev_tid : int;
  prev_kind : access_kind;
  prev_insn : int;
  cur_tid : int;
  cur_kind : access_kind;
  cur_insn : int;
  same_instruction : bool;
  cls : race_class;
}

type error =
  | Race of race
  | Barrier_divergence of { warp : int; insn : int }

module Dedup_key = struct
  type t = Gtrace.Loc.t * int * access_kind * int * access_kind

  let compare = Stdlib.compare
end

module Dedup_set = Set.Make (Dedup_key)
module Loc_set = Set.Make (struct
  type t = Gtrace.Loc.t

  let compare = Gtrace.Loc.compare
end)

type integrity = { corrupt : int; gaps : int; stale : int; desync : int }

type t = {
  layout : Vclock.Layout.t;
  max_reports : int;
  lock : Mutex.t; (* reports arrive from concurrent host threads *)
  mutable seen : Dedup_set.t;
  mutable locs : Loc_set.t;
  mutable errors : error list; (* reversed *)
  mutable kept : int;
  mutable race_count : int;
  mutable bardiv_seen : (int * int) list;
  mutable corrupt : int; (* transport records failing checksum/magic *)
  mutable gaps : int; (* records lost per sequence-number gaps *)
  mutable stale : int; (* duplicate / out-of-date records skipped *)
  mutable desync : int; (* control records orphaned by upstream losses *)
}

let create ?(max_reports = 1000) ~layout () =
  {
    layout;
    max_reports;
    lock = Mutex.create ();
    seen = Dedup_set.empty;
    locs = Loc_set.empty;
    errors = [];
    kept = 0;
    race_count = 0;
    bardiv_seen = [];
    corrupt = 0;
    gaps = 0;
    stale = 0;
    desync = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let classify layout t1 t2 =
  if Vclock.Layout.warp_of_tid layout t1 = Vclock.Layout.warp_of_tid layout t2
  then Intra_warp
  else if
    Vclock.Layout.block_of_tid layout t1 = Vclock.Layout.block_of_tid layout t2
  then Intra_block
  else Inter_block

let add_race t ~prev_insn ~cur_insn ~loc ~prev_tid ~prev_kind ~cur_tid
    ~cur_kind ~same_instruction =
  locked t @@ fun () ->
  let key = (loc, prev_tid, prev_kind, cur_tid, cur_kind) in
  if not (Dedup_set.mem key t.seen) then begin
    t.seen <- Dedup_set.add key t.seen;
    t.locs <- Loc_set.add loc t.locs;
    t.race_count <- t.race_count + 1;
    if t.kept < t.max_reports then begin
      let cls = classify t.layout prev_tid cur_tid in
      t.errors <-
        Race
          {
            loc;
            prev_tid;
            prev_kind;
            prev_insn;
            cur_tid;
            cur_kind;
            cur_insn;
            same_instruction;
            cls;
          }
        :: t.errors;
      t.kept <- t.kept + 1
    end
  end

let add_barrier_divergence t ~warp ~insn =
  locked t @@ fun () ->
  if not (List.mem (warp, insn) t.bardiv_seen) then begin
    t.bardiv_seen <- (warp, insn) :: t.bardiv_seen;
    if t.kept < t.max_reports then begin
      t.errors <- Barrier_divergence { warp; insn } :: t.errors;
      t.kept <- t.kept + 1
    end
  end

let note_unlisted_races t n =
  locked t @@ fun () -> t.race_count <- t.race_count + n

let note_corrupt t = locked t @@ fun () -> t.corrupt <- t.corrupt + 1
let note_gap t n = locked t @@ fun () -> t.gaps <- t.gaps + n
let note_stale t = locked t @@ fun () -> t.stale <- t.stale + 1
let note_desync t = locked t @@ fun () -> t.desync <- t.desync + 1

let integrity t =
  locked t @@ fun () ->
  { corrupt = t.corrupt; gaps = t.gaps; stale = t.stale; desync = t.desync }

(* A degraded verdict is a soundness caveat, not an error: detection
   ran, but part of the event stream was lost or corrupted in
   transport, so "no race found" may under-report. *)
let degraded t =
  locked t @@ fun () ->
  t.corrupt > 0 || t.gaps > 0 || t.stale > 0 || t.desync > 0

let errors t = locked t @@ fun () -> List.rev t.errors
let race_count t = locked t @@ fun () -> t.race_count
let racy_locations t = locked t @@ fun () -> Loc_set.cardinal t.locs
let has_race t = race_count t > 0

let pp_kind ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write -> Format.pp_print_string ppf "write"
  | Atomic_rmw -> Format.pp_print_string ppf "atomic"

let pp_class ppf = function
  | Intra_warp -> Format.pp_print_string ppf "intra-warp"
  | Intra_block -> Format.pp_print_string ppf "intra-block"
  | Inter_block -> Format.pp_print_string ppf "inter-block"

let pp_insn ppf insn =
  if insn >= 0 then Format.fprintf ppf " (insn %d)" insn

let pp_error ppf = function
  | Race r ->
      Format.fprintf ppf "%a race on %a: %a by t%d%a vs %a by t%d%a%s" pp_class
        r.cls Gtrace.Loc.pp r.loc pp_kind r.prev_kind r.prev_tid pp_insn
        r.prev_insn pp_kind r.cur_kind r.cur_tid pp_insn r.cur_insn
        (if r.same_instruction then " (same instruction)" else "")
  | Barrier_divergence { warp; insn } ->
      Format.fprintf ppf "barrier divergence: warp %d at insn %d" warp insn

let kind_code = function Read -> 0 | Write -> 1 | Atomic_rmw -> 2

let compare_race a b =
  let c = Gtrace.Loc.compare a.loc b.loc in
  if c <> 0 then c
  else
    let c = compare a.prev_tid b.prev_tid in
    if c <> 0 then c
    else
      let c = compare (kind_code a.prev_kind) (kind_code b.prev_kind) in
      if c <> 0 then c
      else
        let c = compare a.cur_tid b.cur_tid in
        if c <> 0 then c
        else
          let c = compare (kind_code a.cur_kind) (kind_code b.cur_kind) in
          if c <> 0 then c
          else
            let c = compare a.same_instruction b.same_instruction in
            if c <> 0 then c
            else
              let c = compare a.prev_insn b.prev_insn in
              if c <> 0 then c else compare a.cur_insn b.cur_insn

let sorted_errors t =
  let races, divs =
    List.partition_map
      (function
        | Race r -> Left r
        | Barrier_divergence { warp; insn } -> Right (warp, insn))
      (errors t)
  in
  List.map (fun r -> Race r) (List.sort compare_race races)
  @ List.map
      (fun (warp, insn) -> Barrier_divergence { warp; insn })
      (List.sort_uniq compare divs)
