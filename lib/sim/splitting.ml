type result = {
  estimate : Stats.Splitting.estimate;
  total_trials : int;
  total_events : int;
  levels : int;
  clones : int;
}

let run ?(domains = 1) ?(confidence = 0.95) ?(max_stage_trials = 1 lsl 20)
    ~model ~config ~importance ~levels ~clones ~initial ~seed () =
  if levels < 1 then invalid_arg "Splitting.run: levels must be >= 1";
  if clones < 1 then invalid_arg "Splitting.run: clones must be >= 1";
  if initial < 2 then invalid_arg "Splitting.run: initial must be >= 2";
  if domains < 1 then invalid_arg "Splitting.run: domains must be >= 1";
  if initial > max_stage_trials then
    invalid_arg "Splitting.run: initial exceeds max_stage_trials";
  let total_events = ref 0 in
  let total_trials = ref 0 in
  (* Trial [k] of the whole run uses substream [k] of the seed, whatever
     the stage or domain split. [cursor] is the substream of the next
     stage's first trial: each stage starts where the previous one
     ended, so no stage jumps from the root. *)
  let cursor = ref (Prng.Stream.create ~seed) in
  let stages = ref [] in
  (* One stage: race every source toward [threshold]; [None] sources
     start fresh (stage 0 only). Returns the captured checkpoints in
     trial order. *)
  let run_stage ~threshold (sources : Executor.checkpoint option array) =
    let n = Array.length sources in
    let stage_start = !cursor in
    let run_block _tid (first, count) =
      (* Trial [first + i] of the stage runs on the substream [first + i]
         jumps past the stage's start, regardless of the domain split.
         All trials of the block share one workspace. *)
      let workspace = Executor.workspace model in
      let outcomes = Array.make count (None, 0) in
      let next =
        Prng.Stream.walk (Prng.Stream.substream stage_start first) count
          (fun i stream ->
            outcomes.(i) <-
              (match
                 Executor.run_to_level ~workspace ?from_:sources.(first + i)
                   ~model ~config ~stream ~observer:Observer.nop ~importance
                   ~threshold ()
               with
              | Executor.Finished o -> (None, o.Executor.events)
              | Executor.Crossed { checkpoint; events } ->
                  (Some checkpoint, events)))
      in
      (outcomes, next)
    in
    let results =
      Fanout.run run_block (Fanout.blocks ~domains ~first:0 ~count:n)
    in
    cursor := snd (List.nth results (List.length results - 1));
    let flat = Array.concat (List.map fst results) in
    total_trials := !total_trials + n;
    Array.iter (fun (_, ev) -> total_events := !total_events + ev) flat;
    let hits =
      Array.to_list flat |> List.filter_map fst |> Array.of_list
    in
    stages :=
      { Stats.Splitting.trials = n; hits = Array.length hits } :: !stages;
    hits
  in
  let sources = ref (Array.make initial None) in
  let threshold = ref 1 in
  let continue_ = ref true in
  while !continue_ do
    (* After a jump across several levels, every source of a stage can
       already sit at or above its threshold. Such a stage is a certain
       pass-through (ratio exactly 1, no events): record it and keep the
       population as is — cloning certain crossings would only multiply
       the trial count, not the information. *)
    let pass_through =
      Array.for_all
        (function
          | Some cp ->
              importance (Executor.checkpoint_marking cp) >= !threshold
          | None -> false)
        !sources
    in
    if pass_through then begin
      let n = Array.length !sources in
      total_trials := !total_trials + n;
      stages := { Stats.Splitting.trials = n; hits = n } :: !stages;
      if !threshold = levels then continue_ := false else incr threshold
    end
    else begin
      let hits = run_stage ~threshold:!threshold !sources in
      if Array.length hits = 0 || !threshold = levels then continue_ := false
      else begin
        let h = Array.length hits in
        if h * clones > max_stage_trials then
          invalid_arg
            (Printf.sprintf
               "Splitting.run: stage %d would launch %d trials (> %d); use \
                fewer clones per crossing"
               !threshold (h * clones) max_stage_trials);
        let next = Array.make (h * clones) (Some hits.(0)) in
        Array.iteri
          (fun j cp ->
            for c = 0 to clones - 1 do
              next.((j * clones) + c) <- Some cp
            done)
          hits;
        sources := next;
        incr threshold
      end
    end
  done;
  let stages = Array.of_list (List.rev !stages) in
  {
    estimate = Stats.Splitting.estimate ~confidence stages;
    total_trials = !total_trials;
    total_events = !total_events;
    levels;
    clones;
  }

(* Registry export plus the per-stage convergence trajectory. Stage
   counts and the final estimate are deterministic functions of the
   seed, so nothing here is volatile. The trajectory replays the run:
   point [k] is the estimate the first [k] stages support, with the
   delta-method half-width at that prefix — a zero-hit stage can only
   be the last one, so every proper prefix is a valid stage array. *)
let export ?convergence ?(confidence = 0.95) r ~into =
  let module R = Obs.Registry in
  let stages = r.estimate.Stats.Splitting.stages in
  let s = R.scope into "splitting" in
  R.add (R.counter s "stages") (Array.length stages);
  R.add (R.counter s "trials") r.total_trials;
  R.add (R.counter s "events") r.total_events;
  R.set (R.gauge s "levels") (float_of_int r.levels);
  R.set (R.gauge s "clones") (float_of_int r.clones);
  R.set (R.gauge s "probability") r.estimate.Stats.Splitting.probability;
  R.set (R.gauge s "rel_variance") r.estimate.Stats.Splitting.rel_variance;
  Array.iteri
    (fun k (st : Stats.Splitting.stage) ->
      let name = Printf.sprintf "stage%03d" (k + 1) in
      R.add (R.counter s (name ^ ".trials")) st.Stats.Splitting.trials;
      R.add (R.counter s (name ^ ".hits")) st.Stats.Splitting.hits)
    stages;
  match convergence with
  | None -> ()
  | Some conv ->
      let cumulative = ref 0 in
      Array.iteri
        (fun k (st : Stats.Splitting.stage) ->
          cumulative := !cumulative + st.Stats.Splitting.trials;
          let prefix =
            Stats.Splitting.estimate ~confidence (Array.sub stages 0 (k + 1))
          in
          Obs.Convergence.record conv ~measure:"splitting" ~n:!cumulative
            ~value:prefix.Stats.Splitting.probability
            ~half_width:prefix.Stats.Splitting.ci.Stats.Ci.half_width
            ~confidence)
        stages
