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

type state = {
  model : San.Model.t;
  cfg : config;
  stream : Prng.Stream.t;
  prof : Obs.Profile.t option;
  marking : San.Marking.t;
  heap : Event_heap.t;  (* one entry per scheduled timed activity *)
  inst_on : bool array;  (* per activity: an instantaneous guard holds *)
  mutable inst_count : int;  (* number of [inst_on] flags set *)
  (* Shared read-only tables of the model (see [San.Model] run tables). *)
  inst_ids : int array;  (* ids of instantaneous activities *)
  acts : San.Activity.t array;
  deps : San.Activity.t array array;  (* place uid -> reading activities *)
  seen : int array;  (* per activity: generation stamp (see propagate) *)
  mutable gen : int;
  mutable now : float;
  mutable events : int;
  (* Run-local telemetry. Counted unconditionally (an int bump is cheaper
     than testing an option per event) and folded into the caller's
     Metrics sink, if any, once at the end of the run. *)
  firings : int array;
  cancellations : int array;
  resamples : int array;
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
      let d = Dist.sample (dist st.marking) st.stream in
      pleave st;
      d

let schedule st (a : San.Activity.t) =
  let delay = sample_delay st a in
  penter st Obs.Profile.Heap_push;
  Event_heap.push st.heap ~time:(st.now +. delay) ~act:a.id;
  pleave st

let cancel st id =
  penter st Obs.Profile.Heap_push;
  Event_heap.remove st.heap id;
  pleave st

(* Re-evaluate one activity after a marking change it depends on. An
   instantaneous activity only refreshes its enabled flag; a timed one
   is scheduled, resampled (a re-push replaces its entry) or canceled. *)
let reevaluate st (a : San.Activity.t) =
  match a.timing with
  | San.Activity.Instantaneous ->
      let on = a.enabled st.marking in
      if on <> st.inst_on.(a.id) then begin
        st.inst_on.(a.id) <- on;
        st.inst_count <- (if on then st.inst_count + 1 else st.inst_count - 1)
      end
  | San.Activity.Timed { policy; _ } ->
      if a.enabled st.marking then begin
        if not (Event_heap.mem st.heap a.id) then schedule st a
        else
          match policy with
          | San.Activity.Keep -> ()
          | San.Activity.Resample ->
              st.resamples.(a.id) <- st.resamples.(a.id) + 1;
              schedule st a
      end
      else if Event_heap.mem st.heap a.id then begin
        st.cancellations.(a.id) <- st.cancellations.(a.id) + 1;
        cancel st a.id
      end

let select_case st (a : San.Activity.t) =
  if Array.length a.cases = 1 then 0
  else begin
    let weights =
      Array.map (fun c -> c.San.Activity.case_weight st.marking) a.cases
    in
    Prng.Stream.categorical st.stream weights
  end

(* Fire [a] through case [c]; returns the list of changed place uids.
   The case's program was compiled from its IR term at model-construction
   time and matches [San.Effect.apply] bit for bit, stream draws
   included (pinned by a test). *)
let fire st (a : San.Activity.t) case =
  San.Marking.clear_journal st.marking;
  let ctx = { San.Effect.time = st.now; stream = Some st.stream } in
  San.Effect.run_prog ctx a.cases.(case).San.Activity.prog st.marking;
  st.firings.(a.id) <- st.firings.(a.id) + 1;
  San.Marking.journal st.marking

(* Propagate a marking change: re-evaluate the fired activity and every
   activity that reads a changed place, each at most once. The model's
   dependents table lists every place an instantaneous guard reads, and
   guards are pure functions of those places, so afterwards the
   [inst_on] flags equal a full re-evaluation of every guard. Deduplication
   uses a generation-stamped scratch array instead of a per-event table:
   bumping [gen] invalidates every stamp at once, so the only per-event
   cost is the activities actually visited. *)
let propagate st (fired : San.Activity.t option) changed =
  penter st Obs.Profile.Propagate;
  st.gen <- st.gen + 1;
  let g = st.gen in
  (match fired with
  | Some a ->
      st.seen.(a.San.Activity.id) <- g;
      reevaluate st a
  | None -> ());
  List.iter
    (fun uid ->
      let deps = st.deps.(uid) in
      for i = 0 to Array.length deps - 1 do
        let a = deps.(i) in
        if st.seen.(a.San.Activity.id) <> g then begin
          st.seen.(a.San.Activity.id) <- g;
          reevaluate st a
        end
      done)
    changed;
  pleave st

(* The enabled instantaneous activities, in [inst_ids] order. *)
let enabled_instantaneous st =
  Array.fold_right
    (fun id acc -> if st.inst_on.(id) then st.acts.(id) :: acc else acc)
    st.inst_ids []

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
      let a = Prng.Stream.choose_list st.stream (enabled_instantaneous st) in
      let case = select_case st a in
      let changed = fire st a case in
      propagate st None changed;
      match notify with
      | Some (observer : Observer.t) ->
          st.events <- st.events + 1;
          observer.on_fire st.now a case st.marking
      | None -> st.setup_events <- st.setup_events + 1
    done;
    st.chains <- st.chains + 1;
    st.chain_steps <- st.chain_steps + !steps;
    if !steps > st.max_chain then st.max_chain <- !steps;
    pleave st
  end

(* Build executor state: fresh from the model's initial marking, or a
   private copy of a checkpoint (so several clones can resume from the
   same checkpoint, concurrently, without sharing mutable state). The
   model's activity tables are shared, never copied. The instantaneous
   enabled flags are filled by one scan of the starting marking; from
   then on [propagate] keeps them current. *)
let make_state ~model ~cfg ~stream ~prof ~from_ =
  let acts = San.Model.activities model in
  let n = Array.length acts in
  let marking, heap, now =
    match from_ with
    | None -> (San.Model.initial_marking model, Event_heap.create n, 0.0)
    | Some cp ->
        if cp.cp_model != model then
          invalid_arg "Executor: checkpoint is from a different model";
        (match prof with
        | None -> ()
        | Some p -> Obs.Profile.enter p Obs.Profile.Checkpoint);
        let cloned =
          ( San.Marking.copy cp.cp_marking,
            Event_heap.copy cp.cp_heap,
            cp.cp_now )
        in
        (match prof with None -> () | Some p -> Obs.Profile.leave p);
        cloned
  in
  let inst_ids = San.Model.instantaneous_ids model in
  let inst_on = Array.make n false in
  let inst_count = ref 0 in
  Array.iter
    (fun id ->
      if acts.(id).San.Activity.enabled marking then begin
        inst_on.(id) <- true;
        incr inst_count
      end)
    inst_ids;
  {
    model;
    cfg;
    stream;
    prof;
    marking;
    heap;
    inst_on;
    inst_count = !inst_count;
    inst_ids;
    acts;
    deps = San.Model.dependents_table model;
    seen = Array.make n 0;
    gen = 0;
    now;
    events = 0;
    firings = Array.make n 0;
    cancellations = Array.make n 0;
    resamples = Array.make n 0;
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
      cp_marking = San.Marking.copy st.marking;
      cp_heap = Event_heap.copy st.heap;
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
let exec ?metrics ?profile ?from_ ?cross ?check_invariants ~model ~config:cfg
    ~stream ~observer:(observer : Observer.t) () =
  let st = make_state ~model ~cfg ~stream ~prof:profile ~from_ in
  let guard () =
    match check_invariants with None -> () | Some f -> f st.marking
  in
  (match from_ with
  | None ->
      (* t = 0 setup: stabilize instantaneous activities silently, then
         schedule every enabled timed activity that the stabilization's own
         propagation has not already scheduled (scheduling it twice would
         leave two live completions racing — a doubled rate). *)
      stabilize st ~notify:None;
      Array.iter
        (fun (a : San.Activity.t) ->
          if
            (not (San.Activity.is_instantaneous a))
            && (not (Event_heap.mem st.heap a.id))
            && a.enabled st.marking
          then schedule st a)
        st.acts
  | Some _ ->
      (* Checkpoints are taken at stable markings with every enabled timed
         activity already scheduled in the copied heap: nothing to set up. *)
      ());
  guard ();
  observer.Observer.on_init st.now st.marking;
  let stopped = ref false in
  let crossed = ref false in
  let check_stop () =
    match cfg.stop with
    | Some pred when pred st.marking -> stopped := true
    | Some _ | None -> ()
  in
  let check_cross () =
    match cross with
    | Some pred when (not !stopped) && pred st.marking -> crossed := true
    | Some _ | None -> ()
  in
  check_stop ();
  check_cross ();
  let finished = ref (!stopped || !crossed) in
  let last_event_time = ref st.now in
  while not !finished do
    let depth = Event_heap.size st.heap in
    penter st Obs.Profile.Heap_pop;
    let id = Event_heap.pop st.heap in
    pleave st;
    if id < 0 then finished := true
    else begin
      st.pops <- st.pops + 1;
      st.depth_sum <- st.depth_sum + depth;
      if depth > st.max_depth then st.max_depth <- depth;
      let time = Event_heap.time st.heap id in
      if time > cfg.horizon then begin
        (* Past the horizon: the popped completion is discarded; the
           marking holds through the end of the window. *)
        finished := true
      end
      else begin
        let a = st.acts.(id) in
        if time > st.now then
          observer.Observer.on_advance st.now time st.marking;
        st.now <- time;
        last_event_time := time;
        let case = select_case st a in
        let changed = fire st a case in
        propagate st (Some a) changed;
        st.events <- st.events + 1;
        observer.Observer.on_fire st.now a case st.marking;
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
        observer.Observer.on_advance st.now cfg.horizon st.marking;
      observer.Observer.on_finish cfg.horizon st.marking;
      Finished
        {
          end_time = !last_event_time;
          events = st.events;
          stopped_early = !stopped;
          final = st.marking;
        }
    end
  in
  (match metrics with
  | None -> ()
  | Some m ->
      Metrics.record_run m ~firings:st.firings
        ~cancellations:st.cancellations ~resamples:st.resamples
        ~events:st.events ~setup_events:st.setup_events ~chains:st.chains
        ~chain_steps:st.chain_steps ~max_chain:st.max_chain ~pops:st.pops
        ~depth_sum:st.depth_sum ~max_depth:st.max_depth);
  result

let finished_exn = function
  | Finished o -> o
  | Crossed _ -> assert false (* no [cross] predicate was given *)

let run ?metrics ?profile ?check_invariants ~model ~config ~stream ~observer
    () =
  finished_exn
    (exec ?metrics ?profile ?check_invariants ~model ~config ~stream ~observer
       ())

let resume ?metrics ?profile ?check_invariants ~model ~config ~stream
    ~observer checkpoint =
  finished_exn
    (exec ?metrics ?profile ?check_invariants ~from_:checkpoint ~model ~config
       ~stream ~observer ())

let run_to_level ?metrics ?profile ?from_ ?check_invariants ~model ~config
    ~stream ~observer ~importance ~threshold () =
  exec ?metrics ?profile ?from_ ?check_invariants
    ~cross:(fun m -> importance m >= threshold)
    ~model ~config ~stream ~observer ()
