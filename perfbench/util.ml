(* Shared helpers: clocks, order statistics, heap readings and the
   metric list every workload returns. *)

let now_ns = Telemetry.Clock.now_ns
let ms_since t0 = Telemetry.Clock.ns_to_ms (Telemetry.Clock.elapsed_ns ~since:t0)
let s_since t0 = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:t0)
let ns_to_ms ns = Int64.to_float ns /. 1e6

(* ---- order statistics ---------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

(* "p10 / p50 / p90" of [xs], for notes. *)
let spread_note xs =
  let a = sorted xs in
  Printf.sprintf "p10/p50/p90 %.4g/%.4g/%.4g" (quantile_sorted a 0.1)
    (quantile_sorted a 0.5) (quantile_sorted a 0.9)

(* The tail: the highest percentile with at least ten samples beyond it,
   i.e. the eleventh-largest sample.  Returns (value, percentile, n).
   Below 40 samples that percentile would lie under p75, and the maximum
   stands in, at percentile 100. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 100.0, 0)
  else if n < 40 then (a.(n - 1), 100.0, n)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, n)

(* Quartiles as Python's statistics.quantiles(n=4) computes them (the
   "exclusive" method). *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 1 then a.(0) else nan in
    (v, v, v)
  else
    let q k =
      let m = float_of_int (n + 1) *. float_of_int k /. 4.0 in
      let j = int_of_float m in
      let delta = m -. float_of_int j in
      let j = max 1 (min (n - 1) j) in
      a.(j - 1) +. (delta *. (a.(j) -. a.(j - 1)))
    in
    (q 1, q 2, q 3)

(* ---- heap ------------------------------------------------------------ *)

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let minor_words () = Gc.minor_words ()

(* What one reading of [minor_words] allocates by itself (a boxed
   float). *)
let minor_calibration =
  lazy
    (let a = Gc.minor_words () in
     let b = Gc.minor_words () in
     b -. a)

(* Minor words allocated since the reading [since], calibrated. *)
let minor_delta since =
  Float.max 0.0 (Gc.minor_words () -. since -. Lazy.force minor_calibration)

(* ---- seeded inputs ------------------------------------------------- *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- results ------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Operation accounting shared by every workload: one [record] per
   operation, failures with a reason kept for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable unexplained : int;
  mutable reasons : (string * int) list;
}

let tally () = { attempted = 0; failed = 0; unexplained = 0; reasons = [] }

let record t ?(known = false) ok reason =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if not known then t.unexplained <- t.unexplained + 1;
    let n = try List.assoc reason t.reasons with Not_found -> 0 in
    t.reasons <- (reason, n + 1) :: List.remove_assoc reason t.reasons
  end

let print_failures t =
  List.iter
    (fun (reason, n) -> Printf.printf "  failed x%d: %s\n" n reason)
    (List.sort compare t.reasons)

(* Repeat [f] [n] times and return the median of the per-call seconds
   together with the last value. *)
let timed_median n f =
  let rec go i acc last =
    if i = n then (median acc, Option.get last)
    else
      let t0 = now_ns () in
      let v = f () in
      go (i + 1) (s_since t0 :: acc) (Some v)
  in
  go 0 [] None

(* ---- rounds ---------------------------------------------------------- *)

(* One round of a closed loop.  Every round does the same work (the same
   operations, in a freshly seeded order). *)
type round = {
  dur_s : float;
  lat_ms : float list;  (** one latency per operation of the round *)
  setup_s : float option;  (** a set-up repetition timed just before it *)
}

(* Run [round] back to back for [seconds] (at least four rounds).  When
   [setup] is given, one repetition of it is timed before every
   [setup_every]-th round, outside that round's duration, so set-up is
   sampled across the whole run rather than only at its start; [release]
   disposes of what it made, untimed.  Every figure is taken over all the
   rounds: on a shared host this code's speed moves by tens of percent
   from second to second, and a subset picked by speed would hide a
   change that slows only some rounds. *)
let rounds ?setup ?(release = ignore) ?(setup_every = 1) ~seconds round =
  let out = ref [] and i = ref 0 in
  let start = now_ns () in
  while !i < 4 || s_since start < seconds do
    let setup_s =
      match setup with
      | Some f when !i mod setup_every = 0 ->
          let t0 = now_ns () in
          let v = f () in
          let s = s_since t0 in
          release v;
          Some s
      | _ -> None
    in
    let t0 = now_ns () in
    let lat_ms = round () in
    out := { dur_s = s_since t0; lat_ms; setup_s } :: !out;
    incr i
  done;
  List.rev !out

(* Operations per second over [rs], [per_round] operations each. *)
let rate ~per_round rs =
  let secs = List.fold_left (fun acc r -> acc +. r.dur_s) 0.0 rs in
  float_of_int per_round *. float_of_int (List.length rs) /. secs

let latencies rs = List.concat_map (fun r -> r.lat_ms) rs

(* Median of the set-up repetitions. *)
let setup_median rs = median (List.filter_map (fun r -> r.setup_s) rs)

(* "n rounds, round s p10/p50/p90 ..." for notes. *)
let rounds_note rs =
  Printf.sprintf "%d rounds, round s %s" (List.length rs)
    (spread_note (List.map (fun r -> r.dur_s) rs))
