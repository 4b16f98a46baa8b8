module Report = Barracuda.Report

let merged ~layout ~max_reports reports =
  let out = Report.create ~max_reports ~layout () in
  let races = ref [] and bardivs = ref [] in
  Array.iter
    (fun r ->
      List.iter
        (function
          | Report.Race race -> races := race :: !races
          | Report.Barrier_divergence { warp; insn } ->
              bardivs := (warp, insn) :: !bardivs)
        (Report.errors r))
    reports;
  List.iter
    (fun (race : Report.race) ->
      Report.add_race out ~prev_insn:race.Report.prev_insn
        ~cur_insn:race.Report.cur_insn ~loc:race.Report.loc
        ~prev_tid:race.Report.prev_tid ~prev_kind:race.Report.prev_kind
        ~cur_tid:race.Report.cur_tid ~cur_kind:race.Report.cur_kind
        ~same_instruction:race.Report.same_instruction)
    (List.sort Report.compare_race !races);
  List.iter
    (fun (warp, insn) -> Report.add_barrier_divergence out ~warp ~insn)
    (List.sort_uniq compare !bardivs);
  (* Shards own disjoint locations, so the distinct-race total is the
     sum of theirs, including races a capped shard never listed. *)
  let total =
    Array.fold_left (fun acc r -> acc + Report.race_count r) 0 reports
  in
  Report.note_unlisted_races out (total - Report.race_count out);
  (* Integrity counts are replicated, not partitioned: every shard
     consumes (and validates) the full broadcast stream, so the same
     producer-side anomaly is noted once per shard.  Per-field max
     recovers the per-stream count; summing would scale it by the
     shard count. *)
  let merged_integrity =
    Array.fold_left
      (fun (acc : Report.integrity) r ->
        let i = Report.integrity r in
        {
          Report.corrupt = max acc.Report.corrupt i.Report.corrupt;
          gaps = max acc.Report.gaps i.Report.gaps;
          stale = max acc.Report.stale i.Report.stale;
          desync = max acc.Report.desync i.Report.desync;
        })
      { Report.corrupt = 0; gaps = 0; stale = 0; desync = 0 }
      reports
  in
  for _ = 1 to merged_integrity.Report.corrupt do
    Report.note_corrupt out
  done;
  if merged_integrity.Report.gaps > 0 then
    Report.note_gap out merged_integrity.Report.gaps;
  for _ = 1 to merged_integrity.Report.stale do
    Report.note_stale out
  done;
  for _ = 1 to merged_integrity.Report.desync do
    Report.note_desync out
  done;
  out
