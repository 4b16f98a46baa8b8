(* The [daemon] workload: an in-process Service.Server (1 worker, default
   submit flags) driven through Service.Client.submit by at most two
   sender threads, each holding at most one connection.

   Phases, after one untimed warm-up pass over the mix:
   - light, heavy: open loop, seeded exponential arrivals at two fixed
     offered rates; latency is timed from when each job was due;
   - saturation: rounds of the mix with both senders in a closed loop, so
     the worker never idles; its completion rate is max_jobs_per_s.

   Verdict oracle: Barracuda.Reference over Gtrace.Infer.run on the same
   submission, computed before any timed region; stencil jobs use their
   seeded answer. *)

module P = Service.Protocol

(* The two offered rates, fixed so that a faster daemon meets the same
   traffic, and set against the saturation rate of this mix with 2
   closed-loop senders, measured on a 2-vCPU Xeon virtual machine whose
   speed for this code moves by up to 1.7x with its other tenants' load:
   570-750 jobs/s in a slow hour, 1,050-1,190 in a fast one.  light is
   0.08-0.18 of it (worker utilisation 0.09-0.20 measured), heavy
   0.2-0.45 (0.20-0.42).  At both, the tail is set by jobs waiting behind
   a stencil job, which is about three quarters of a tail job's latency;
   at heavy more of them wait, and longer.  At 400 jobs/s (utilisation
   0.55-0.6) the heavy p50 moved by a factor of 3 between runs of the
   same code. *)
let light_rate = 100.0
let heavy_rate = 250.0
let stencil_jobs_per_round = 2

(* Known defect, kept in the mix on purpose: with the default prune=true
   the daemon answers race-free on these racy kernels. *)
let known_false_negatives =
  [ "lock_missing_acquire_fence"; "lock_cta_fence_cross_block" ]

type sub = {
  label : string;
  submit : P.submit;
  mutable expect_racy : bool;
  mutable seeded_words : int option;  (** a stencil's k racy global words *)
  mutable full_races : int;  (** full-logging one-shot race count *)
  mutable records : int;  (** records the daemon's pruned check ships *)
}

let layout_triple (l : Vclock.Layout.t) =
  Some (l.Vclock.Layout.blocks, l.Vclock.Layout.threads_per_block, l.Vclock.Layout.warp_size)

let check_sub ~label ~layout ?(args = []) ptx =
  {
    label;
    submit = { (P.submit_defaults ~kind:P.Check ptx) with P.layout; args };
    expect_racy = false;
    seeded_words = None;
    full_races = 0;
    records = 0;
  }

(* The daemon submission of a generated kernel, where its arguments can
   be written as allocations: bug-suite cases (alloc:256 each, as
   `barracuda suite` submits them), hashtable (its Table-1 allocations)
   and stencils (their three buffers). *)
let sub_of_item (it : Inputs.item) =
  let sub args =
    Some
      (check_sub ~label:it.Inputs.name ~layout:(layout_triple it.Inputs.layout) ~args
         (Ptx.Printer.kernel_to_string it.Inputs.kernel))
  in
  let alloc bytes = Printf.sprintf "alloc:%d" bytes in
  let l = it.Inputs.layout in
  let threads = l.Vclock.Layout.blocks * l.Vclock.Layout.threads_per_block in
  match it.Inputs.oracle with
  | Inputs.Case _ -> sub (List.map (fun _ -> alloc 256) it.Inputs.kernel.Ptx.Ast.params)
  | Inputs.Table1 w when w.Workloads.Workload.name = "hashtable" ->
      sub [ alloc 4; alloc 4; alloc (4 * threads) ]
  | Inputs.Racy_words k ->
      Option.map
        (fun s ->
          s.expect_racy <- true;
          s.seeded_words <- Some k;
          s)
        (sub [ alloc (4 * threads); alloc (4 * threads); alloc (4 * l.Vclock.Layout.blocks) ])
  | Inputs.Table1 _ | Inputs.Racy _ -> None

(* The mix of one round: 66 bug-suite kernels, hashtable, examples/*.ptx,
   and a few mid-size seeded stencil jobs. *)
let build_mix ~seed =
  let roster = List.filter_map sub_of_item (Inputs.roster_items ()) in
  let examples =
    Sys.readdir "examples" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ptx")
    |> List.sort compare
    |> List.map (fun f ->
           let ic = open_in_bin (Filename.concat "examples" f) in
           let src = really_input_string ic (in_channel_length ic) in
           close_in ic;
           check_sub ~label:("examples/" ^ f) ~layout:None src)
  in
  let rng = Random.State.make [| seed; 2 |] in
  let stencils =
    List.init stencil_jobs_per_round (fun i ->
        let it = Inputs.stencil_item rng ~blocks:8 ~steps:2 ~k:2 in
        Option.get
          (sub_of_item { it with Inputs.name = Printf.sprintf "%s#%d" it.Inputs.name i }))
  in
  Array.of_list (roster @ examples @ stencils)

let is_stencil s = s.seeded_words <> None

let layout_of s =
  match s.submit.P.layout with
  | None -> Service.Exec.default_layout
  | Some (blocks, tpb, warp) ->
      Vclock.Layout.make ~warp_size:warp ~threads_per_block:tpb ~blocks

(* The submission as a generated input, for the layer probes. *)
let item_of_sub s =
  let kernel = Ptx.Parser.kernel_of_string s.submit.P.payload in
  {
    Inputs.name = s.label;
    layout = layout_of s;
    kernel;
    setup = (fun m -> Service.Exec.resolve_args m kernel s.submit.P.args);
    oracle = Inputs.Racy s.expect_racy;
    ptx = s.submit.P.payload;
  }

(* Oracles, outside every timer: the Reference verdict, the
   full-logging one-shot race count, and the daemon path's record
   count (instrumented exactly as the artifact cache does).  A stencil's
   answer is its seed's: racy, with exactly k racy global words in the
   full-logging one-shot report, whose race count the daemon must then
   match. *)
let oracle s =
  let kernel = Ptx.Parser.kernel_of_string s.submit.P.payload in
  let layout = layout_of s in
  let fresh () =
    let m = Simt.Machine.create ~layout () in
    (m, Service.Exec.resolve_args m kernel s.submit.P.args)
  in
  if not (is_stencil s) then begin
    let m, args = fresh () in
    let ops, _ = Gtrace.Infer.run ~max_steps:2_000_000 ~layout m kernel args in
    let r = Barracuda.Reference.create ~layout () in
    Barracuda.Reference.run r ops;
    s.expect_racy <- Barracuda.Report.has_race (Barracuda.Reference.report r)
  end;
  let m, args = fresh () in
  let full = Gpu_runtime.Session.run_stream ~machine:m kernel args in
  let report = full.Gpu_runtime.Session.sr_report in
  s.full_races <- Barracuda.Report.race_count report;
  Option.iter
    (fun k ->
      if Workloads.Workload.racy_word_counts report <> (0, k) then
        failwith (s.label ^ ": the one-shot check misses the seeded racy words"))
    s.seeded_words;
  let inst =
    Instrument.Pass.instrument ~prune:s.submit.P.prune ~static:s.submit.P.static kernel
  in
  let m, args = fresh () in
  let pruned = Gpu_runtime.Session.run_stream ~inst ~machine:m kernel args in
  s.records <- pruned.Gpu_runtime.Session.sr_records

(* ---- the daemon ---------------------------------------------------- *)

let socket_path ?(tag = "") () =
  Printf.sprintf "perfbench/out/daemon-%d%s.sock" (Unix.getpid ()) tag

let start_daemon socket_path =
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let server =
    Service.Server.start
      ~config:
        {
          Service.Server.default_config with
          Service.Server.socket_path;
          workers = 1;
          session_seats = 0;
        }
      ()
  in
  if not (Service.Client.wait_ready ~socket:socket_path ()) then
    failwith "daemon did not come up";
  server

let stop_daemon server socket_path =
  Service.Server.stop server;
  try Unix.unlink socket_path with Unix.Unix_error _ -> ()

(* ---- jobs ----------------------------------------------------------- *)

type sample = {
  sub : sub;
  due_ns : int64;
  sent_ns : int64;
  done_ns : int64;
  reply : (P.response, string) result;
}

let latency_ms s = Util.ns_to_ms (Int64.sub s.done_ns s.due_ns)
let late_ms s = Util.ns_to_ms (Int64.sub s.sent_ns s.due_ns)

(* A job that failed or was refused misses every latency limit. *)
let effective_latency s =
  match s.reply with Ok (P.Result _) -> latency_ms s | _ -> infinity

let send ~socket sub due_ns =
  let sent_ns = Util.now_ns () in
  let reply = Service.Client.submit ~socket sub.submit in
  { sub; due_ns; sent_ns; done_ns = Util.now_ns (); reply }

(* Run [jobs] (with due times relative to the phase start; [None] =
   closed loop) on two sender threads.  Samples come back in job order. *)
let run_phase ~socket jobs due =
  let next = Atomic.make 0 in
  let n = Array.length jobs in
  let out = Array.make n None in
  let t0 = Util.now_ns () in
  let sender () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due_ns =
          match due with
          | None -> Util.now_ns ()
          | Some d ->
              let due_ns = Int64.add t0 (Int64.of_float (d.(i) *. 1e9)) in
              let wait = Int64.sub due_ns (Util.now_ns ()) in
              if wait > 0L then Unix.sleepf (Int64.to_float wait /. 1e9);
              due_ns
        in
        out.(i) <- Some (send ~socket jobs.(i) due_ns);
        loop ()
      end
    in
    loop ()
  in
  let threads = List.init 2 (fun _ -> Thread.create sender ()) in
  List.iter Thread.join threads;
  let wall = Util.s_since t0 in
  (Array.to_list out |> List.filter_map Fun.id, wall)

(* One round of [subs] in a fresh seeded order, with the stencil jobs
   spread out: one at a seeded place in each of k equal blocks, so that
   two of them rarely queue back to back.  Left to a plain shuffle, the
   number of stencil pairs in a phase varied from run to run and moved
   the open-loop tails by a third. *)
let order rng subs =
  let part p = Util.shuffle rng (Array.of_list (List.filter p (Array.to_list subs))) in
  let stencils = part is_stencil and rest = part (fun s -> not (is_stencil s)) in
  let n = Array.length subs and k = Array.length stencils in
  let next = ref 0 in
  let block b =
    let lo = b * n / k and hi = (b + 1) * n / k in
    let at = lo + Random.State.int rng (hi - lo) in
    List.init (hi - lo) (fun i ->
        if lo + i = at then stencils.(b)
        else begin
          incr next;
          rest.(!next - 1)
        end)
  in
  if k = 0 then rest else Array.of_list (List.concat (List.init k block))

(* [n] jobs drawn round by round from the mix. *)
let schedule rng mix n =
  let rounds = (n / Array.length mix) + 1 in
  let all = Array.concat (List.init rounds (fun _ -> order rng mix)) in
  Array.sub all 0 n

let arrivals rng ~rate n =
  let t = ref 0.0 in
  Array.init n (fun _ ->
      let u = Random.State.float rng 1.0 in
      t := !t -. (log (1.0 -. u) /. rate);
      !t)

(* ---- judging -------------------------------------------------------- *)

let judge tally s =
  let name = s.sub.label in
  match s.reply with
  | Ok (P.Result { outcome; _ }) ->
      let racy = outcome.P.verdict = P.Racy in
      (* a stencil job must also carry the seeded answer's race count *)
      let count_ok = (not (is_stencil s.sub)) || outcome.P.races = s.sub.full_races in
      Util.record tally
        ~known:(List.mem name known_false_negatives)
        (racy = s.sub.expect_racy && count_ok)
        (if racy <> s.sub.expect_racy then
           Printf.sprintf "%s: daemon says %s, oracle %s" name
             (P.verdict_string outcome.P.verdict)
             (if s.sub.expect_racy then "racy" else "race_free")
         else
           Printf.sprintf "%s: daemon reports %d races, the seeded answer %d" name
             outcome.P.races s.sub.full_races)
  | Ok (P.Rejected { reason; _ }) ->
      Util.record tally false (Printf.sprintf "rejected: %s" reason)
  | Ok (P.Failed { code; _ }) ->
      Util.record tally false (Printf.sprintf "%s: failed %s" name code)
  | Ok r -> Util.record tally false (name ^ ": unexpected " ^ P.encode_response r)
  | Error e -> Util.record tally false (name ^ ": transport " ^ e)

let reply_fields s =
  match s.reply with
  | Ok (P.Result { outcome; queue_ms; run_ms; _ }) ->
      Some (queue_ms, run_ms, outcome.P.detect_ms)
  | _ -> None


(* ---- service figures -------------------------------------------------- *)

(* The service layer's figures over [samples]: queue, run and detect time
   from the replies, the round trip's remainder, the cache hit ratio from
   the daemon's status, static fast-path answers, rejections, jobs that
   lost race locations against the full-logging one-shot count, and how
   late the generator sent. *)
let service_metrics ~socket samples =
  let fields = List.filter_map reply_fields samples in
  let p50_tail name xs =
    let v, _, _ = Util.tail xs in
    [ Util.metric (name ^ ".p50") "ms" (Util.median xs); Util.metric (name ^ ".tail") "ms" v ]
  in
  let overheads =
    List.filter_map
      (fun s ->
        Option.map
          (fun (q, r, _) -> Util.ns_to_ms (Int64.sub s.done_ns s.sent_ns) -. q -. r)
          (reply_fields s))
      samples
  in
  let status =
    match Service.Client.status ~socket with
    | Ok st -> st
    | Error e -> failwith ("status: " ^ e)
  in
  let hits = status.P.cache_hits and misses = status.P.cache_misses in
  let count p = float_of_int (List.length (List.filter p samples)) in
  let outcome p s = match s.reply with Ok (P.Result { outcome; _ }) -> p outcome | _ -> false in
  p50_tail "service.queue_ms" (List.map (fun (q, _, _) -> q) fields)
  @ p50_tail "service.run_ms" (List.map (fun (_, r, _) -> r) fields)
  @ p50_tail "service.detect_ms" (List.map (fun (_, _, d) -> d) fields)
  @ [
      Util.metric "service.overhead_ms" "ms" (Util.median overheads);
      Util.metric "service.cache_hit_ratio" "ratio"
        (float_of_int hits /. float_of_int (max 1 (hits + misses)));
      Util.metric "service.rejects" "count"
        (count (fun s -> match s.reply with Ok (P.Rejected _) -> true | _ -> false));
      Util.metric "service.static_fast" "count" (count (outcome (fun o -> o.P.static)));
      Util.metric "service.race_locations_lost" "count"
        (count (fun s -> outcome (fun o -> o.P.races < s.sub.full_races) s));
      Util.metric "daemon.gen_late_ms" "ms" (Util.median (List.map late_ms samples));
    ]

(* The service layer on another workload's kernels: those [sub_of_item]
   can submit, sent twice over in an open loop at the light rate to a
   daemon of their own, after a warm-up pass.  Verdicts are not judged
   here; the daemon workload judges them. *)
let service_probe ~seed (items : Inputs.item array) =
  let subs = Array.of_list (List.filter_map sub_of_item (Array.to_list items)) in
  if subs = [||] then []
  else begin
    Array.iter oracle subs;
    let socket = socket_path ~tag:"-probe" () in
    let server = start_daemon socket in
    Fun.protect
      ~finally:(fun () -> stop_daemon server socket)
      (fun () ->
        ignore (run_phase ~socket subs None);
        let rng = Random.State.make [| seed; 4 |] in
        let n = 2 * Array.length subs in
        let samples, _ =
          run_phase ~socket (schedule rng subs n) (Some (arrivals rng ~rate:light_rate n))
        in
        service_metrics ~socket samples)
  end

(* ---- the run ---------------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  let mix = build_mix ~seed in
  let socket = socket_path () in
  let server = start_daemon socket in
  Fun.protect
    ~finally:(fun () -> stop_daemon server socket)
    (fun () ->
      Array.iter oracle mix;
      let per_round = Array.length mix in
      Printf.printf "  mix of %d submissions per round\n" per_round;
      let tally = Util.tally () in
      let lost_labels = Hashtbl.create 8 in
      let judge_all samples =
        List.iter
          (fun s ->
            judge tally s;
            match s.reply with
            | Ok (P.Result { outcome; _ }) when outcome.P.races < s.sub.full_races ->
                Hashtbl.replace lost_labels s.sub.label
                  (outcome.P.races, s.sub.full_races)
            | _ -> ())
          samples
      in
      let rng = Random.State.make [| seed; 3 |] in
      let warm, _ = run_phase ~socket mix None in
      judge_all warm;
      (* each open loop sends whole rounds of the mix, so every kernel's
         share is exact, for about 30% of the run *)
      let open_rounds rate =
        max 4
          (int_of_float (Float.round (0.3 *. seconds *. rate /. float_of_int per_round)))
      in
      (* An open loop sends whole rounds of the mix in a row.  The
         printed line says where the time went: the worker's utilisation
         (run time over wall time), and the p50 and tail of generator
         lateness (jobs waiting for a free sender) and of daemon queue
         wait. *)
      let open_loop ~rate =
        let n = per_round * open_rounds rate in
        let samples, wall =
          run_phase ~socket (schedule rng mix n) (Some (arrivals rng ~rate n))
        in
        judge_all samples;
        let fields = List.filter_map reply_fields samples in
        let busy_s = List.fold_left (fun acc (_, r, _) -> acc +. r) 0.0 fields /. 1000.0 in
        let p50_tail xs =
          let t, _, _ = Util.tail xs in
          Printf.sprintf "%.2f/%.2f ms" (Util.median xs) t
        in
        Printf.printf
          "  open loop at %.0f jobs/s: %d jobs in %.2f s; worker utilisation %.2f, \
           generator lateness %s, queue wait %s\n"
          rate n wall (busy_s /. wall)
          (p50_tail (List.map late_ms samples))
          (p50_tail (List.map (fun (q, _, _) -> q) fields));
        (samples, wall)
      in
      let light, light_s = open_loop ~rate:light_rate in
      let heavy, heavy_s = open_loop ~rate:heavy_rate in
      (* saturation: rounds of the mix, both senders in a closed loop;
         set-up (mix generation and printing, a second daemon's start) is
         repeated before every round while the first daemon idles *)
      let sat_samples = ref [] in
      let setup_socket = socket_path ~tag:"-setup" () in
      let rounds =
        Util.rounds ~seconds:(0.3 *. seconds)
          ~setup:(fun () ->
            ignore (Sys.opaque_identity (build_mix ~seed));
            start_daemon setup_socket)
          ~release:(fun server -> stop_daemon server setup_socket)
          (fun () ->
            let samples, _ = run_phase ~socket (order rng mix) None in
            judge_all samples;
            sat_samples := List.rev_append samples !sat_samples;
            List.map latency_ms samples)
      in
      let sat_rate = Util.rate ~per_round rounds in
      let records_per_round = Array.fold_left (fun acc s -> acc + s.records) 0 mix in
      Printf.printf "  saturation: %d rounds\n" (List.length rounds);
      Hashtbl.iter
        (fun label (got, full) ->
          Printf.printf "  race locations lost: %s (%d races, %d with full logging)\n"
            label got full)
        lost_labels;
      let lat samples = List.map effective_latency samples in
      let metrics =
        if not trace then
          [
            Util.metric "setup_s" "s" (Util.setup_median rounds);
            Util.metric "checks_per_s" "1/s" sat_rate
              ~note:("check jobs, 2 closed-loop senders, " ^ Util.rounds_note rounds);
            Util.metric "records_per_s" "1/s"
              (sat_rate *. float_of_int records_per_round /. float_of_int per_round)
              ~note:"records the completed jobs shipped";
            Util.metric "max_jobs_per_s" "1/s" sat_rate
              ~note:"2 closed-loop senders: the queue never empties";
          ]
          @ Report.latency ~p50:"chunk_verdict_p50_ms" ~tail:"chunk_verdict_tail_ms"
              (Util.latencies rounds)
          @ Report.latency ~p50:"job_p50_ms.light" ~tail:"job_tail_ms.light"
              (lat light)
          @ Report.latency ~p50:"job_p50_ms.heavy" ~tail:"job_tail_ms.heavy"
              (lat heavy)
        else begin
          let all = light @ heavy @ !sat_samples in
          (* the client-side ledger: each job's latency from its due time
             split into generator lateness, protocol overhead, queue wait,
             execution and detection, built from the replies after the
             phases; what tracing costs here is that building, set
             against the phases' own time *)
          let t_led = Util.now_ns () in
          let led = Ledger.create () in
          let wall_ms = ref 0.0 in
          List.iteri
            (fun i s ->
              Ledger.set_op led i;
              let ms = latency_ms s in
              wall_ms := !wall_ms +. ms;
              let ns x = Int64.of_float (x *. 1e6) in
              let leaf layer name ms = ignore (Ledger.record led ~layer name ~dur_ns:(ns ms)) in
              let root = Ledger.record led ~layer:"bench" "job" ~dur_ns:(ns ms) in
              let rtt = Util.ns_to_ms (Int64.sub s.done_ns s.sent_ns) in
              Ledger.within led root (fun () ->
                  leaf "bench" "daemon.gen_late" (late_ms s);
                  match reply_fields s with
                  | Some (q, r, d) ->
                      leaf "service" "service.overhead" (rtt -. q -. r);
                      leaf "service" "service.queue" q;
                      leaf "gpu_runtime" "service.run" (r -. d);
                      leaf "barracuda" "service.detect" d
                  | None -> leaf "service" "service.failed" rtt))
            all;
          Ledger.write led (Printf.sprintf "perfbench/out/trace-daemon-%d.jsonl" seed);
          let ledger_s = Util.s_since t_led in
          let phases_s =
            light_s +. heavy_s +. List.fold_left (fun acc r -> acc +. r.Util.dur_s) 0.0 rounds
          in
          Ledger.report led ~wall_ms:!wall_ms ~ops:(List.length all)
          (* lateness only exists in the open loops *)
          @ Util.metric "daemon.gen_late_ms" "ms"
              (Util.median (List.map late_ms (light @ heavy)))
            :: service_metrics ~socket all
          @ [
              Util.metric "trace.overhead" "x"
                ((phases_s +. ledger_s) /. phases_s)
                ~note:"ledger built from the replies after the phases";
            ]
        end
      in
      (tally, metrics, Array.map item_of_sub mix))
