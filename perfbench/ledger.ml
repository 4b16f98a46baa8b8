(* The traced-run layer ledger.

   Spans are recorded from the benchmark's side of each library call:
   name, layer, start, duration, parent span, and the id of the check or
   job they belong to, plus the minor words allocated inside.  A span
   that wraps a per-record call ([aggregate]) is kept as one entry per
   parent with a call count, so a 10^5-record check costs one entry,
   not 10^5.  Everything stays in memory until [write]. *)

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (** -1 for a top-level span *)
  op : int;  (** check / stream / job id *)
  start_ns : int64;
  mutable dur_ns : int64;
  mutable calls : int;
  mutable words : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : span list;  (** open spans, innermost first *)
  mutable op : int;
}

let create () = { spans = []; next = 0; stack = []; op = 0 }
let set_op t op = t.op <- op

let open_span t ~layer name =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s =
    {
      id = t.next;
      name;
      layer;
      parent;
      op = t.op;
      start_ns = Util.now_ns ();
      dur_ns = 0L;
      calls = 1;
      words = 0.0;
    }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.stack <- s :: t.stack;
  s

let with_span t ~layer name f =
  let s = open_span t ~layer name in
  let w0 = Util.minor_words () in
  let close () =
    s.words <- Util.minor_delta w0;
    s.dur_ns <- Telemetry.Clock.elapsed_ns ~since:s.start_ns;
    t.stack <- List.tl t.stack
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* An aggregate child of the innermost open span: [add] one call at a
   time. *)
let aggregate t ~layer name =
  let s = open_span t ~layer name in
  s.calls <- 0;
  t.stack <- List.tl t.stack;
  s

let add s ~ns ~words =
  s.dur_ns <- Int64.add s.dur_ns ns;
  s.calls <- s.calls + 1;
  s.words <- s.words +. words

(* Minor words the measurement in [timed] allocates by itself (boxed
   clock readings), subtracted from every call it measures. *)
let probe_words =
  lazy
    (let best = ref infinity in
     for _ = 1 to 1000 do
       let w0 = Gc.minor_words () in
       let t0 = Util.now_ns () in
       let ns = Telemetry.Clock.elapsed_ns ~since:t0 in
       let w = Gc.minor_words () -. w0 in
       ignore (Sys.opaque_identity ns);
       if w < !best then best := w
     done;
     !best)

(* Time one call of [f] into the aggregate span [s]. *)
let timed s f =
  let overhead = Lazy.force probe_words in
  let w0 = Gc.minor_words () in
  let t0 = Util.now_ns () in
  f ();
  let ns = Telemetry.Clock.elapsed_ns ~since:t0 in
  let w = Gc.minor_words () -. w0 in
  add s ~ns ~words:(Float.max 0.0 (w -. overhead))

(* Record a span measured elsewhere (e.g. from a daemon reply) as a
   child of the innermost open span. *)
let record t ~layer name ~dur_ns =
  let s = open_span t ~layer name in
  s.dur_ns <- dur_ns;
  t.stack <- List.tl t.stack;
  s

(* Run [f] with [s] as the innermost open span. *)
let within t s f =
  t.stack <- s :: t.stack;
  Fun.protect ~finally:(fun () -> t.stack <- List.tl t.stack) f

(* ---- analysis ------------------------------------------------------ *)

let layers =
  [ "ptx"; "simt"; "gpu_runtime"; "barracuda"; "instrument"; "static";
    "service"; "shard"; "bench" ]

(* Self time and self allocation per layer: a span's duration minus the
   part its children cover. *)
let self_by_layer t =
  let child_ns = Hashtbl.create 1024 and child_w = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let ns = try Hashtbl.find child_ns s.parent with Not_found -> 0L in
        Hashtbl.replace child_ns s.parent (Int64.add ns s.dur_ns);
        let w = try Hashtbl.find child_w s.parent with Not_found -> 0.0 in
        Hashtbl.replace child_w s.parent (w +. s.words)
      end)
    t.spans;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let cns = try Hashtbl.find child_ns s.id with Not_found -> 0L in
      let cw = try Hashtbl.find child_w s.id with Not_found -> 0.0 in
      let self_ns = Int64.to_float (Int64.sub s.dur_ns cns) in
      let self_w = Float.max 0.0 (s.words -. cw) in
      let ns, w = try Hashtbl.find tbl s.layer with Not_found -> (0.0, 0.0) in
      Hashtbl.replace tbl s.layer (ns +. self_ns, w +. self_w))
    t.spans;
  List.map
    (fun l ->
      let ns, w = try Hashtbl.find tbl l with Not_found -> (0.0, 0.0) in
      (l, ns /. 1e6, w))
    layers

let top_level_ms t =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. Util.ns_to_ms s.dur_ns else acc)
    0.0 t.spans

(* Total duration and calls of every span named [name]. *)
let total t name =
  List.fold_left
    (fun (ms, calls, w) s ->
      if s.name = name then (ms +. Util.ns_to_ms s.dur_ns, calls + s.calls, w +. s.words)
      else (ms, calls, w))
    (0.0, 0, 0.0) t.spans

(* Print the ledger (self time and self minor words per layer, and the
   part of [wall_ms] no top-level span covers) and return the
   unattributed share of [wall_ms]. *)
let report t ~wall_ms ~ops =
  let rows = self_by_layer t in
  let unattributed = Float.max 0.0 (wall_ms -. top_level_ms t) in
  Printf.printf "  ledger over %.1f ms wall, %d operations, %d spans:\n" wall_ms
    ops (List.length t.spans);
  Printf.printf "    %-12s %12s %8s %16s\n" "layer" "self ms" "share" "minor words";
  List.iter
    (fun (l, ms, w) ->
      Printf.printf "    %-12s %12.1f %7.1f%% %16.0f\n" l ms
        (100.0 *. ms /. wall_ms) w)
    rows;
  Printf.printf "    %-12s %12.1f %7.1f%%\n" "unattributed" unattributed
    (100.0 *. unattributed /. wall_ms);
  let share = if wall_ms > 0.0 then unattributed /. wall_ms else 0.0 in
  [ Util.metric "trace.unattributed_share" "ratio" share ]

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One JSON object per span, oldest first. *)
let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"layer\":\"%s\",\"parent\":%d,\"op\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"calls\":%d,\"minor_words\":%.0f}\n"
        s.id (json_escape s.name) s.layer s.parent s.op s.start_ns
        (Int64.add s.start_ns s.dur_ns) s.calls s.words)
    (List.rev t.spans);
  close_out oc
