exception Stabilization_diverged of string

type config = {
  horizon : float;
  max_events : int;
  max_inst_chain : int;
  stop : (San.Marking.t -> bool) option;
}

let config ?(max_events = 1_000_000_000) ?(max_inst_chain = 1_000_000) ?stop
    ~horizon () =
  if not (horizon > 0.0) then invalid_arg "Executor.config: horizon must be > 0";
  { horizon; max_events; max_inst_chain; stop }

type outcome = {
  end_time : float;
  events : int;
  stopped_early : bool;
  final : San.Marking.t;
}

type checkpoint = {
  cp_model : San.Model.t;
  cp_marking : San.Marking.t;
  cp_heap : Event_heap.t;
  cp_now : float;
}

let checkpoint_marking cp = cp.cp_marking

type split_outcome =
  | Finished of outcome
  | Crossed of { checkpoint : checkpoint; events : int }

(* Everything a run mutates, allocated once per model and reset in place
   at the start of every run (see [reset]). *)
type workspace = {
  ws_model : San.Model.t;
  marking : San.Marking.t;
  heap : Event_heap.t;  (* one entry per scheduled timed activity *)
  inst_on : bool array;  (* per activity: an instantaneous guard holds *)
  seen : int array;  (* per activity: generation stamp (see propagate) *)
  mutable gen : int;
      (* Only grows, across runs: a stamp left by any earlier run, even
         one that raised mid-propagation, is below every future [gen]. *)
  (* Per-activity telemetry, counted unconditionally (an int bump is
     cheaper than testing an option per event) and folded into the
     caller's Metrics sink, if any, once at the end of the run. *)
  firings : int array;
  cancellations : int array;
  resamples : int array;
}

let workspace model =
  let n = Array.length (San.Model.activities model) in
  {
    ws_model = model;
    marking = San.Model.initial_marking model;
    heap = Event_heap.create n;
    inst_on = Array.make n false;
    seen = Array.make n 0;
    gen = 0;
    firings = Array.make n 0;
    cancellations = Array.make n 0;
    resamples = Array.make n 0;
  }

type state = {
  ws : workspace;
  model : San.Model.t;
  cfg : config;
  stream : Prng.Stream.t;
  prof : Obs.Profile.t option;
  mutable inst_count : int;  (* number of [inst_on] flags set *)
  (* Shared read-only tables of the model (see [San.Model] run tables). *)
  inst_ids : int array;  (* ids of instantaneous activities *)
  acts : San.Activity.t array;
  deps : San.Activity.t array array;  (* place uid -> reading activities *)
  mutable now : float;
  mutable events : int;
  (* Run-local scalar telemetry, folded into Metrics like the
     workspace's per-activity counters. *)
  mutable setup_events : int;
  mutable chains : int;
  mutable chain_steps : int;
  mutable max_chain : int;
  mutable pops : int;
  mutable depth_sum : int;
  mutable max_depth : int;
}

(* Phase-profiler shims: a single option match when profiling is off —
   the only cost the hot path pays for the instrumentation. *)
let[@inline] penter st ph =
  match st.prof with None -> () | Some p -> Obs.Profile.enter p ph

let[@inline] pleave st =
  match st.prof with None -> () | Some p -> Obs.Profile.leave p

let sample_delay st (a : San.Activity.t) =
  match a.timing with
  | San.Activity.Instantaneous -> assert false
  | San.Activity.Timed { dist; _ } ->
      penter st Obs.Profile.Sample;
      let d = Dist.sample (dist st.ws.marking) st.stream in
      pleave st;
      d

let schedule st (a : San.Activity.t) =
  let delay = sample_delay st a in
  penter st Obs.Profile.Heap_push;
  Event_heap.push st.ws.heap ~time:(st.now +. delay) ~act:a.id;
  pleave st

let cancel st id =
  penter st Obs.Profile.Heap_push;
  Event_heap.remove st.ws.heap id;
  pleave st

(* Re-evaluate one activity after a marking change it depends on. An
   instantaneous activity only refreshes its enabled flag; a timed one
   is scheduled, resampled (a re-push replaces its entry) or canceled. *)
let reevaluate st (a : San.Activity.t) =
  let ws = st.ws in
  match a.timing with
  | San.Activity.Instantaneous ->
      let on = a.enabled ws.marking in
      if on <> ws.inst_on.(a.id) then begin
        ws.inst_on.(a.id) <- on;
        st.inst_count <- (if on then st.inst_count + 1 else st.inst_count - 1)
      end
  | San.Activity.Timed { policy; _ } ->
      if a.enabled ws.marking then begin
        if not (Event_heap.mem ws.heap a.id) then schedule st a
        else
          match policy with
          | San.Activity.Keep -> ()
          | San.Activity.Resample ->
              ws.resamples.(a.id) <- ws.resamples.(a.id) + 1;
              schedule st a
      end
      else if Event_heap.mem ws.heap a.id then begin
        ws.cancellations.(a.id) <- ws.cancellations.(a.id) + 1;
        cancel st a.id
      end

let select_case st (a : San.Activity.t) =
  if Array.length a.cases = 1 then 0
  else begin
    let weights =
      Array.map (fun c -> c.San.Activity.case_weight st.ws.marking) a.cases
    in
    Prng.Stream.categorical st.stream weights
  end

(* Fire [a] through case [c]; returns the list of changed place uids. *)
let fire st (a : San.Activity.t) case =
  let ws = st.ws in
  San.Marking.clear_journal ws.marking;
  San.Effect.apply st.stream a.cases.(case).San.Activity.effect ws.marking;
  ws.firings.(a.id) <- ws.firings.(a.id) + 1;
  San.Marking.journal ws.marking

let visit st g (a : San.Activity.t) =
  if st.ws.seen.(a.id) <> g then begin
    st.ws.seen.(a.id) <- g;
    reevaluate st a
  end

let rec propagate_changed st g = function
  | [] -> ()
  | uid :: rest ->
      let deps = st.deps.(uid) in
      for i = 0 to Array.length deps - 1 do
        visit st g deps.(i)
      done;
      propagate_changed st g rest

(* Propagate a marking change: re-evaluate the fired activity (none when
   [fired] is -1) and every activity that reads a changed place, each at
   most once. The model's dependents table lists every place an
   instantaneous guard reads, and guards are pure functions of those
   places, so afterwards the [inst_on] flags equal a full re-evaluation
   of every guard. Deduplication uses a generation-stamped scratch array
   instead of a per-event table: bumping [gen] invalidates every stamp at
   once, so the only per-event cost is the activities actually
   visited. *)
let propagate st fired changed =
  penter st Obs.Profile.Propagate;
  let g = st.ws.gen + 1 in
  st.ws.gen <- g;
  if fired >= 0 then visit st g st.acts.(fired);
  propagate_changed st g changed;
  pleave st

(* The [k]-th (from 0) enabled instantaneous activity, in [inst_ids]
   order. *)
let rec nth_enabled inst_on inst_ids i k =
  let id = inst_ids.(i) in
  if not inst_on.(id) then nth_enabled inst_on inst_ids (i + 1) k
  else if k = 0 then id
  else nth_enabled inst_on inst_ids (i + 1) (k - 1)

(* Fire enabled instantaneous activities until none remain, choosing
   uniformly among the enabled set at each step.  [notify] is None during
   t = 0 setup (observers do not see setup firings). *)
let stabilize st ~notify =
  if st.inst_count > 0 then begin
    penter st Obs.Profile.Stabilize;
    let steps = ref 0 in
    while st.inst_count > 0 do
      incr steps;
      if !steps > st.cfg.max_inst_chain then
        raise
          (Stabilization_diverged
             (Printf.sprintf
                "more than %d consecutive instantaneous firings at t=%g"
                st.cfg.max_inst_chain st.now));
      let k = Prng.Stream.int st.stream st.inst_count in
      let a = st.acts.(nth_enabled st.ws.inst_on st.inst_ids 0 k) in
      let case = select_case st a in
      let changed = fire st a case in
      propagate st (-1) changed;
      match notify with
      | Some (observer : Observer.t) ->
          st.events <- st.events + 1;
          observer.on_fire st.now a case st.ws.marking
      | None -> st.setup_events <- st.setup_events + 1
    done;
    st.chains <- st.chains + 1;
    st.chain_steps <- st.chain_steps + !steps;
    if !steps > st.max_chain then st.max_chain <- !steps;
    pleave st
  end

(* Reset [ws] for a run of [model]: to the model's t = 0 template, or to
   a checkpoint (copied in, so several clones can resume from the same
   checkpoint, concurrently, each in its own workspace). Everything a
   run, finished or raised, can leave behind is overwritten here; the
   stamps in [seen] need no reset because [gen] only grows. Returns the
   starting clock and the number of enabled instantaneous activities. *)
let reset ws ~model ~prof ~from_ =
  if ws.ws_model != model then
    invalid_arg "Executor: workspace is for a different model";
  Array.fill ws.firings 0 (Array.length ws.firings) 0;
  Array.fill ws.cancellations 0 (Array.length ws.cancellations) 0;
  Array.fill ws.resamples 0 (Array.length ws.resamples) 0;
  let inst_ids = San.Model.instantaneous_ids model in
  for i = 0 to Array.length inst_ids - 1 do
    ws.inst_on.(inst_ids.(i)) <- false
  done;
  match from_ with
  | None ->
      San.Model.reset_marking model ws.marking;
      Event_heap.clear ws.heap;
      let on = San.Model.initial_instantaneous model in
      for i = 0 to Array.length on - 1 do
        ws.inst_on.(on.(i)) <- true
      done;
      (0.0, Array.length on)
  | Some cp ->
      if cp.cp_model != model then
        invalid_arg "Executor: checkpoint is from a different model";
      (match prof with
      | None -> ()
      | Some p -> Obs.Profile.enter p Obs.Profile.Checkpoint);
      San.Marking.blit ~src:cp.cp_marking ~dst:ws.marking;
      Event_heap.blit ~src:cp.cp_heap ~dst:ws.heap;
      (match prof with None -> () | Some p -> Obs.Profile.leave p);
      (* The instantaneous enabled flags are filled by one scan of the
         starting marking; from then on [propagate] keeps them current. *)
      let acts = San.Model.activities model in
      let count = ref 0 in
      for i = 0 to Array.length inst_ids - 1 do
        let id = inst_ids.(i) in
        if acts.(id).San.Activity.enabled ws.marking then begin
          ws.inst_on.(id) <- true;
          incr count
        end
      done;
      (cp.cp_now, !count)

let make_state ~ws ~model ~cfg ~stream ~prof ~from_ =
  let now, inst_count = reset ws ~model ~prof ~from_ in
  {
    ws;
    model;
    cfg;
    stream;
    prof;
    inst_count;
    inst_ids = San.Model.instantaneous_ids model;
    acts = San.Model.activities model;
    deps = San.Model.dependents_table model;
    now;
    events = 0;
    setup_events = 0;
    chains = 0;
    chain_steps = 0;
    max_chain = 0;
    pops = 0;
    depth_sum = 0;
    max_depth = 0;
  }

let checkpoint_of st =
  penter st Obs.Profile.Checkpoint;
  let cp =
    {
      cp_model = st.model;
      cp_marking = San.Marking.copy st.ws.marking;
      cp_heap = Event_heap.copy st.ws.heap;
      cp_now = st.now;
    }
  in
  pleave st;
  cp

(* The shared engine behind [run], [resume] and [run_to_level].

   [cross], when given, is evaluated on *stable* markings only — at the
   start of the run (after t = 0 setup for fresh runs) and after every
   timed firing once its instantaneous chain has stabilized.  Returning
   true halts the run with a checkpoint of the current state; the
   horizon advance and [on_finish] are then *not* reported, because the
   trajectory is not finished — a clone will continue it. *)
let exec ?workspace:ws ?metrics ?profile ?from_ ?cross ?check_invariants
    ~model ~config:cfg ~stream ~observer:(observer : Observer.t) () =
  let ws = match ws with Some ws -> ws | None -> workspace model in
  let st = make_state ~ws ~model ~cfg ~stream ~prof:profile ~from_ in
  let marking = ws.marking and heap = ws.heap in
  let guard () =
    match check_invariants with None -> () | Some f -> f marking
  in
  (match from_ with
  | None ->
      (* t = 0 setup: stabilize instantaneous activities silently, then
         schedule every enabled timed activity that the stabilization's own
         propagation has not already scheduled (scheduling it twice would
         leave two live completions racing — a doubled rate). The
         template's timed list holds every candidate (see
         [San.Model.initial_timed]), in id order. *)
      stabilize st ~notify:None;
      let timed = San.Model.initial_timed model in
      for i = 0 to Array.length timed - 1 do
        let a = st.acts.(timed.(i)) in
        if (not (Event_heap.mem heap a.id)) && a.enabled marking then
          schedule st a
      done
  | Some _ ->
      (* Checkpoints are taken at stable markings with every enabled timed
         activity already scheduled in the copied heap: nothing to set up. *)
      ());
  guard ();
  observer.Observer.on_init st.now marking;
  let stopped = ref false in
  let crossed = ref false in
  let check_stop () =
    match cfg.stop with
    | Some pred when pred marking -> stopped := true
    | Some _ | None -> ()
  in
  let check_cross () =
    match cross with
    | Some pred when (not !stopped) && pred marking -> crossed := true
    | Some _ | None -> ()
  in
  check_stop ();
  check_cross ();
  let finished = ref (!stopped || !crossed) in
  let last_event_time = ref st.now in
  while not !finished do
    let depth = Event_heap.size heap in
    penter st Obs.Profile.Heap_pop;
    let id = Event_heap.pop heap in
    pleave st;
    if id < 0 then finished := true
    else begin
      st.pops <- st.pops + 1;
      st.depth_sum <- st.depth_sum + depth;
      if depth > st.max_depth then st.max_depth <- depth;
      let time = Event_heap.time heap id in
      if time > cfg.horizon then begin
        (* Past the horizon: the popped completion is discarded; the
           marking holds through the end of the window. *)
        finished := true
      end
      else begin
        let a = st.acts.(id) in
        if time > st.now then observer.Observer.on_advance st.now time marking;
        st.now <- time;
        last_event_time := time;
        let case = select_case st a in
        let changed = fire st a case in
        propagate st id changed;
        st.events <- st.events + 1;
        observer.Observer.on_fire st.now a case marking;
        check_stop ();
        if not !stopped then begin
          stabilize st ~notify:(Some observer);
          guard ()
        end;
        check_stop ();
        check_cross ();
        if !stopped || !crossed then finished := true;
        if st.events >= cfg.max_events then finished := true
      end
    end
  done;
  let result =
    if !crossed then Crossed { checkpoint = checkpoint_of st; events = st.events }
    else begin
      if cfg.horizon > st.now then
        observer.Observer.on_advance st.now cfg.horizon marking;
      observer.Observer.on_finish cfg.horizon marking;
      Finished
        {
          end_time = !last_event_time;
          events = st.events;
          stopped_early = !stopped;
          final = marking;
        }
    end
  in
  (match metrics with
  | None -> ()
  | Some m ->
      Metrics.record_run m ~firings:ws.firings
        ~cancellations:ws.cancellations ~resamples:ws.resamples
        ~events:st.events ~setup_events:st.setup_events ~chains:st.chains
        ~chain_steps:st.chain_steps ~max_chain:st.max_chain ~pops:st.pops
        ~depth_sum:st.depth_sum ~max_depth:st.max_depth);
  result

let finished_exn = function
  | Finished o -> o
  | Crossed _ -> assert false (* no [cross] predicate was given *)

let run ?workspace ?metrics ?profile ?check_invariants ~model ~config ~stream
    ~observer () =
  finished_exn
    (exec ?workspace ?metrics ?profile ?check_invariants ~model ~config
       ~stream ~observer ())

let resume ?metrics ?profile ?check_invariants ~model ~config ~stream
    ~observer checkpoint =
  finished_exn
    (exec ?metrics ?profile ?check_invariants ~from_:checkpoint ~model ~config
       ~stream ~observer ())

let run_to_level ?workspace ?metrics ?profile ?from_ ?check_invariants ~model
    ~config ~stream ~observer ~importance ~threshold () =
  exec ?workspace ?metrics ?profile ?from_ ?check_invariants
    ~cross:(fun m -> importance m >= threshold)
    ~model ~config ~stream ~observer ()
