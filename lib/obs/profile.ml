type phase =
  | Propagate
  | Stabilize
  | Sample
  | Heap_push
  | Heap_pop
  | Checkpoint
  | Ctmc_explore
  | Ctmc_solve

let phases =
  [|
    Propagate; Stabilize; Sample; Heap_push; Heap_pop; Checkpoint;
    Ctmc_explore; Ctmc_solve;
  |]

let n_phases = Array.length phases

let phase_index = function
  | Propagate -> 0
  | Stabilize -> 1
  | Sample -> 2
  | Heap_push -> 3
  | Heap_pop -> 4
  | Checkpoint -> 5
  | Ctmc_explore -> 6
  | Ctmc_solve -> 7

let phase_name = function
  | Propagate -> "propagate"
  | Stabilize -> "stabilize"
  | Sample -> "sample"
  | Heap_push -> "heap_push"
  | Heap_pop -> "heap_pop"
  | Checkpoint -> "checkpoint"
  | Ctmc_explore -> "ctmc_explore"
  | Ctmc_solve -> "ctmc_solve"

type span_rec = { sp_phase : int; sp_start : int64; sp_dur : int64; sp_tid : int }

type t = {
  self_ns : int64 array;  (* per phase: accumulated self-time *)
  counts : int array;  (* per phase: enter count *)
  stack : int array;  (* phase indices of the open spans *)
  starts : int64 array;  (* enter time of each open span *)
  mutable depth : int;
  mutable last : int64;  (* clock reading of the last enter/leave *)
  t0 : int64;  (* creation time: span timestamps are relative to it *)
  tid : int;
  record_spans : bool;
  mutable spans : span_rec list;  (* newest first *)
  mutable n_spans : int;
  mutable dropped_spans : int;
  (* GC deltas folded in by gc_capture: collections from Gc.quick_stat,
     words from Gc.counters, which unlike quick_stat's word counts are
     the calling domain's own. *)
  mutable gc_minor : int;
  mutable gc_major : int;
  mutable gc_words : float;
  mutable gc_base : Gc.stat;
  mutable gc_base_words : float;
}

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let max_stack = 64

let max_spans = 200_000

let make ~spans ~tid ~t0 =
  {
    self_ns = Array.make n_phases 0L;
    counts = Array.make n_phases 0;
    stack = Array.make max_stack 0;
    starts = Array.make max_stack 0L;
    depth = 0;
    last = Clock.now_ns ();
    t0;
    tid;
    record_spans = spans;
    spans = [];
    n_spans = 0;
    dropped_spans = 0;
    gc_minor = 0;
    gc_major = 0;
    gc_words = 0.0;
    gc_base = Gc.quick_stat ();
    gc_base_words = allocated_words ();
  }

let create ?(spans = false) () = make ~spans ~tid:0 ~t0:(Clock.now_ns ())

let fork ?(tid = 0) t =
  make ~spans:t.record_spans ~tid ~t0:t.t0

let charge t now =
  if t.depth > 0 then begin
    let i = t.stack.(t.depth - 1) in
    t.self_ns.(i) <- Int64.add t.self_ns.(i) (Int64.sub now t.last)
  end;
  t.last <- now

let enter t phase =
  let now = Clock.now_ns () in
  charge t now;
  if t.depth >= max_stack then invalid_arg "Obs.Profile: phase stack overflow";
  let i = phase_index phase in
  t.stack.(t.depth) <- i;
  t.starts.(t.depth) <- now;
  t.depth <- t.depth + 1;
  t.counts.(i) <- t.counts.(i) + 1

let leave t =
  if t.depth = 0 then invalid_arg "Obs.Profile.leave: no open phase";
  let now = Clock.now_ns () in
  charge t now;
  t.depth <- t.depth - 1;
  if t.record_spans then begin
    if t.n_spans < max_spans then begin
      let start = t.starts.(t.depth) in
      t.spans <-
        {
          sp_phase = t.stack.(t.depth);
          sp_start = Int64.sub start t.t0;
          sp_dur = Int64.sub now start;
          sp_tid = t.tid;
        }
        :: t.spans;
      t.n_spans <- t.n_spans + 1
    end
    else t.dropped_spans <- t.dropped_spans + 1
  end

let span t phase f =
  enter t phase;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

let gc_capture t =
  let s = Gc.quick_stat () and w = allocated_words () in
  let b = t.gc_base in
  t.gc_minor <- t.gc_minor + (s.Gc.minor_collections - b.Gc.minor_collections);
  t.gc_major <- t.gc_major + (s.Gc.major_collections - b.Gc.major_collections);
  t.gc_words <- t.gc_words +. (w -. t.gc_base_words);
  t.gc_base <- s;
  t.gc_base_words <- w

let merge ~into src =
  for i = 0 to n_phases - 1 do
    into.self_ns.(i) <- Int64.add into.self_ns.(i) src.self_ns.(i);
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.gc_minor <- into.gc_minor + src.gc_minor;
  into.gc_major <- into.gc_major + src.gc_major;
  into.gc_words <- into.gc_words +. src.gc_words;
  into.dropped_spans <- into.dropped_spans + src.dropped_spans;
  if into.record_spans then begin
    (* Keep global caps: excess merged spans count as dropped. *)
    let keep = Int.max 0 (max_spans - into.n_spans) in
    let taken = Int.min keep src.n_spans in
    let rec take n acc = function
      | s :: rest when n > 0 -> take (n - 1) (s :: acc) rest
      | _ -> acc
    in
    (* src.spans is newest-first; keep its oldest [taken]. *)
    let oldest_first = List.rev src.spans in
    let kept = List.rev (take taken [] oldest_first) in
    into.spans <- kept @ into.spans;
    into.n_spans <- into.n_spans + taken;
    into.dropped_spans <- into.dropped_spans + (src.n_spans - taken)
  end

let self_seconds t phase = Clock.ns_to_s t.self_ns.(phase_index phase)
let count t phase = t.counts.(phase_index phase)

let attributed_seconds t =
  Clock.ns_to_s (Array.fold_left Int64.add 0L t.self_ns)

let gc_allocated_words t = t.gc_words

let export t ~into =
  gc_capture t;
  let s = Registry.scope into "profile" in
  Array.iter
    (fun p ->
      let n = phase_name p in
      Registry.set
        (Registry.gauge ~volatile:true ~merge:`Sum s (n ^ "_self_seconds"))
        (self_seconds t p);
      Registry.add (Registry.counter s (n ^ "_count")) (count t p))
    phases;
  Registry.set
    (Registry.gauge ~volatile:true ~merge:`Sum s "attributed_seconds")
    (attributed_seconds t);
  Registry.add
    (Registry.counter ~volatile:true s "gc_minor_collections")
    t.gc_minor;
  Registry.add
    (Registry.counter ~volatile:true s "gc_major_collections")
    t.gc_major;
  Registry.set
    (Registry.gauge ~volatile:true ~merge:`Sum s "gc_allocated_words")
    t.gc_words;
  Registry.add (Registry.counter ~volatile:true s "spans_dropped")
    t.dropped_spans

let write_trace path t =
  let module J = Report.Json in
  let span_json s =
    J.Obj
      [
        ("name", J.Str (phase_name phases.(s.sp_phase)));
        ("ph", J.Str "X");
        ("ts", J.Num (Int64.to_float s.sp_start /. 1e3));
        ("dur", J.Num (Int64.to_float s.sp_dur /. 1e3));
        ("pid", J.int 0);
        ("tid", J.int s.sp_tid);
      ]
  in
  (* Stored newest-first; emit in chronological order. *)
  let ordered =
    List.sort
      (fun a b -> Int64.compare a.sp_start b.sp_start)
      (List.rev t.spans)
  in
  Report.write_jsonl path (List.map span_json ordered)
