type t = {
  names : string array;
  firings : int array;
  cancellations : int array;
  resamples : int array;
  mutable runs : int;
  mutable events : int;
  mutable setup_events : int;
  mutable chains : int;
  mutable chain_steps : int;
  mutable max_chain : int;
  mutable pops : int;
  mutable stale_pops : int;
  mutable depth_sum : int;
  mutable max_depth : int;
  mutable wall_seconds : float;
  run_events : int array;
  mutable min_run_events : int;
  mutable max_run_events : int;
}

(* Base-2 log buckets of the per-run event count, sized to match the
   registry's histogram layout (observe_raw clamps anyway). *)
let hist_buckets = 63

let bucket_of_int v =
  if v <= 1 then 0
  else begin
    let i = ref 0 in
    let bound = ref 1 in
    while !bound < v && !i < hist_buckets - 1 do
      incr i;
      bound := !bound * 2
    done;
    !i
  end

let create ~model =
  let acts = San.Model.activities model in
  let n = Array.length acts in
  {
    names = Array.map (fun (a : San.Activity.t) -> a.name) acts;
    firings = Array.make n 0;
    cancellations = Array.make n 0;
    resamples = Array.make n 0;
    runs = 0;
    events = 0;
    setup_events = 0;
    chains = 0;
    chain_steps = 0;
    max_chain = 0;
    pops = 0;
    stale_pops = 0;
    depth_sum = 0;
    max_depth = 0;
    wall_seconds = 0.0;
    run_events = Array.make hist_buckets 0;
    min_run_events = max_int;
    max_run_events = 0;
  }

let reset m =
  Array.fill m.firings 0 (Array.length m.firings) 0;
  Array.fill m.cancellations 0 (Array.length m.cancellations) 0;
  Array.fill m.resamples 0 (Array.length m.resamples) 0;
  m.runs <- 0;
  m.events <- 0;
  m.setup_events <- 0;
  m.chains <- 0;
  m.chain_steps <- 0;
  m.max_chain <- 0;
  m.pops <- 0;
  m.stale_pops <- 0;
  m.depth_sum <- 0;
  m.max_depth <- 0;
  m.wall_seconds <- 0.0;
  Array.fill m.run_events 0 hist_buckets 0;
  m.min_run_events <- max_int;
  m.max_run_events <- 0

let add_arrays dst src =
  Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src

let merge ~into src =
  if Array.length into.names <> Array.length src.names then
    invalid_arg "Metrics.merge: sinks come from different models";
  add_arrays into.firings src.firings;
  add_arrays into.cancellations src.cancellations;
  add_arrays into.resamples src.resamples;
  into.runs <- into.runs + src.runs;
  into.events <- into.events + src.events;
  into.setup_events <- into.setup_events + src.setup_events;
  into.chains <- into.chains + src.chains;
  into.chain_steps <- into.chain_steps + src.chain_steps;
  into.max_chain <- Int.max into.max_chain src.max_chain;
  into.pops <- into.pops + src.pops;
  into.stale_pops <- into.stale_pops + src.stale_pops;
  into.depth_sum <- into.depth_sum + src.depth_sum;
  into.max_depth <- Int.max into.max_depth src.max_depth;
  into.wall_seconds <- into.wall_seconds +. src.wall_seconds;
  add_arrays into.run_events src.run_events;
  into.min_run_events <- Int.min into.min_run_events src.min_run_events;
  into.max_run_events <- Int.max into.max_run_events src.max_run_events

let add_wall m s = m.wall_seconds <- m.wall_seconds +. s

let record_run m ~firings ~cancellations ~resamples ~events ~setup_events
    ~chains ~chain_steps ~max_chain ~pops ~depth_sum ~max_depth =
  add_arrays m.firings firings;
  add_arrays m.cancellations cancellations;
  add_arrays m.resamples resamples;
  m.runs <- m.runs + 1;
  m.events <- m.events + events;
  m.setup_events <- m.setup_events + setup_events;
  m.chains <- m.chains + chains;
  m.chain_steps <- m.chain_steps + chain_steps;
  m.max_chain <- Int.max m.max_chain max_chain;
  m.pops <- m.pops + pops;
  m.depth_sum <- m.depth_sum + depth_sum;
  m.max_depth <- Int.max m.max_depth max_depth;
  let b = bucket_of_int events in
  m.run_events.(b) <- m.run_events.(b) + 1;
  m.min_run_events <- Int.min m.min_run_events events;
  m.max_run_events <- Int.max m.max_run_events events

(* Below a microsecond of recorded wall time the quotient is timer
   noise, not a throughput: report undefined (nan), which every snapshot
   writer renders as null, rather than inf or a garbage figure. *)
let min_wall_seconds = 1e-6

let events_per_sec m =
  if m.wall_seconds >= min_wall_seconds then
    float_of_int m.events /. m.wall_seconds
  else nan

let stale_fraction m =
  if m.pops = 0 then nan else float_of_int m.stale_pops /. float_of_int m.pops

let never_fired m =
  let out = ref [] in
  for i = Array.length m.firings - 1 downto 0 do
    if m.firings.(i) = 0 then out := m.names.(i) :: !out
  done;
  !out

(* Registry export: deterministic engine counters into the "engine"
   scope, per-activity counters into "activity", and wall-derived
   figures as volatile gauges (excluded from the deterministic core of
   a snapshot). Idempotent targets: exporting two sinks into the same
   registry adds them, matching [merge]. *)
let export m ~into =
  let module R = Obs.Registry in
  let e = R.scope into "engine" in
  R.add (R.counter e "runs") m.runs;
  R.add (R.counter e "events") m.events;
  R.add (R.counter e "setup_events") m.setup_events;
  R.add (R.counter e "chains") m.chains;
  R.add (R.counter e "chain_steps") m.chain_steps;
  R.add (R.counter e "heap_pops") m.pops;
  R.add (R.counter e "heap_stale_pops") m.stale_pops;
  R.add (R.counter e "heap_depth_sum") m.depth_sum;
  R.set (R.gauge e "max_chain") (float_of_int m.max_chain);
  R.set (R.gauge e "max_heap_depth") (float_of_int m.max_depth);
  R.observe_raw
    (R.histogram e "events_per_run")
    ~counts:m.run_events ~n:m.runs
    ~sum:(float_of_int m.events)
    ~min_:(float_of_int m.min_run_events)
    ~max_:(float_of_int m.max_run_events);
  R.set (R.gauge ~volatile:true ~merge:`Sum e "wall_seconds") m.wall_seconds;
  R.set (R.gauge ~volatile:true e "events_per_sec") (events_per_sec m);
  let a = R.scope into "activity" in
  Array.iteri
    (fun i name ->
      R.add (R.counter a (name ^ ".firings")) m.firings.(i);
      R.add (R.counter a (name ^ ".cancellations")) m.cancellations.(i);
      R.add (R.counter a (name ^ ".resamples")) m.resamples.(i))
    m.names
