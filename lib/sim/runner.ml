type spec = {
  model : San.Model.t;
  horizon : float;
  rewards : Reward.spec list;
  extra_observers : (unit -> Observer.t) list;
  stop : (San.Marking.t -> bool) option;
  max_events : int;
}

let spec ?(extra_observers = []) ?stop ?(max_events = 1_000_000_000) ~model
    ~horizon rewards =
  if rewards = [] then invalid_arg "Runner.spec: no rewards given";
  List.iter
    (fun r ->
      let latest = Reward.latest_time r in
      if latest > horizon then
        invalid_arg
          (Printf.sprintf
             "Runner.spec: reward %S observes until t=%g beyond horizon %g"
             r.Reward.name latest horizon))
    rewards;
  { model; horizon; rewards; extra_observers; stop; max_events }

type result = {
  name : string;
  ci : Stats.Ci.t;
  welford : Stats.Welford.t;
  n_defined : int;
  n_runs : int;
}

type progress = {
  completed : int;
  target : int;
  elapsed : float;
  eta : float option;
  worst_rel_hw : float;
  cis : (string * Stats.Ci.t) list;
}

(* Durations come from the monotonic clock: a wall-time step must not
   corrupt elapsed/eta figures or the wall time fed to Metrics. *)
let now () = Obs.Clock.ns_to_s (Obs.Clock.now_ns ())

let run_one ?workspace ?metrics ?profile ?record s stream =
  let instances = List.map Reward.instantiate s.rewards in
  let observers =
    List.map Reward.observer instances
    @ List.map (fun make -> make ()) s.extra_observers
    @
    match record with
    | Some (sink, _) -> [ Trajectory.observer sink ]
    | None -> []
  in
  let cfg =
    Executor.config ~max_events:s.max_events ?stop:s.stop ~horizon:s.horizon ()
  in
  let (_ : Executor.outcome) =
    Executor.run ?workspace ?metrics ?profile ~model:s.model ~config:cfg
      ~stream ~observer:(Observer.combine observers) ()
  in
  (match record with
  | Some (sink, rep) -> Trajectory.offer sink ~rep
  | None -> ());
  Array.of_list (List.map Reward.value instances)

(* Trajectory recording must aggregate identically for any ~domains split,
   including the floating-point occupancy sums. Replications are grouped
   into fixed global segments of [record_segment] consecutive indices;
   each segment accumulates into its own fork of the caller's sink, domain
   blocks are aligned to segment boundaries, and segment sinks merge in
   global segment order — the same float-add sequence regardless of how
   segments are spread over domains. *)
let record_segment = 64

(* Run replications [first, first+count) accumulating Welford state and
   defined-counts per reward, plus an optional per-block metrics sink
   and profiler fork (one each per block, so domains never share one)
   and per-segment trajectory sinks (forked from [record], returned in
   segment order). Replication [first] runs on [start], which must be
   substream [first] of the seed; the block also returns substream
   [first + count], where the next batch starts. All replications of the
   block share one executor workspace. GC deltas are captured here,
   inside the domain that owns the fork, before the block result crosses
   back. *)
let run_block s ~start ~count ~first ~with_metrics ~profile ~tid ~record =
  let metrics =
    if with_metrics then Some (Metrics.create ~model:s.model) else None
  in
  let prof = Option.map (fun p -> Obs.Profile.fork ~tid p) profile in
  let sinks = ref [] in
  let record_for rep =
    match record with
    | None -> None
    | Some parent -> (
        let seg = rep / record_segment in
        match !sinks with
        | (s0, sink) :: _ when s0 = seg -> Some (sink, rep)
        | _ ->
            let sink = Trajectory.fork parent in
            sinks := (seg, sink) :: !sinks;
            Some (sink, rep))
  in
  let n_rewards = List.length s.rewards in
  let accs = Array.init n_rewards (fun _ -> Stats.Welford.create ()) in
  let defined = Array.make n_rewards 0 in
  let workspace = Executor.workspace s.model in
  let next =
    Prng.Stream.walk start count (fun i stream ->
        let values =
          run_one ~workspace ?metrics ?profile:prof
            ?record:(record_for (first + i))
            s stream
        in
        Array.iteri
          (fun j v ->
            if not (Float.is_nan v) then begin
              Stats.Welford.add accs.(j) v;
              defined.(j) <- defined.(j) + 1
            end)
          values)
  in
  Option.iter Obs.Profile.gc_capture prof;
  (accs, defined, metrics, prof, List.rev_map snd !sinks, next)

let default_domains () =
  Int.max 1 (Int.min 8 (Domain.recommended_domain_count ()))

(* Contiguous near-equal blocks covering [first, first + count). *)
let blocks_of ~domains ~first ~count =
  let base = count / domains and extra = count mod domains in
  List.init domains (fun d ->
      let c = base + if d < extra then 1 else 0 in
      let f = first + (d * base) + Int.min d extra in
      (f, c))

(* Like blocks_of, but block boundaries fall on recording-segment
   boundaries (near-equal in whole segments), so no segment straddles two
   domains. Requires [first] to be a multiple of [record_segment]; may
   return fewer than [domains] blocks. *)
let blocks_of_aligned ~domains ~first ~count =
  let seg = record_segment in
  let nseg = (count + seg - 1) / seg in
  let d = Int.max 1 (Int.min domains nseg) in
  let base = nseg / d and extra = nseg mod d in
  List.init d (fun i ->
      let lo = (i * base) + Int.min i extra in
      let hi = lo + base + if i < extra then 1 else 0 in
      (first + (lo * seg), Int.min count (hi * seg) - (lo * seg)))

(* Run [blocks], which cover [completed, completed + count), from
   [cursor], substream [completed] of the seed. Returns the block results
   in block order and substream [completed + count]. *)
let run_blocks s ~cursor ~completed ~with_metrics ~profile ~record blocks =
  let go tid (first, count) =
    (* Each block jumps from the shared cursor on its own domain. *)
    let start = Prng.Stream.substream cursor (first - completed) in
    run_block s ~start ~count ~first ~with_metrics ~profile ~tid ~record
  in
  let results =
    match blocks with
    | [ b ] -> [ go 0 b ]
    | _ ->
        List.map Domain.join
          (List.mapi (fun tid b -> Domain.spawn (fun () -> go tid b)) blocks)
  in
  let _, _, _, _, _, next = List.nth results (List.length results - 1) in
  (results, next)

(* Fold one run_blocks result into the shared accumulators (and the
   caller's metrics and trajectory sinks), preserving block order so
   estimates — and recorded occupancy sums — stay deterministic. *)
let consume ~accs ~defined ~metrics ~profile ~record results =
  List.iter
    (fun (block_accs, block_defined, block_metrics, block_prof, block_sinks, _)
       ->
      Array.iteri
        (fun j acc ->
          accs.(j) <- Stats.Welford.merge accs.(j) acc;
          defined.(j) <- defined.(j) + block_defined.(j))
        block_accs;
      (match (metrics, block_metrics) with
      | Some m, Some bm -> Metrics.merge ~into:m bm
      | (Some _ | None), _ -> ());
      (match (profile, block_prof) with
      | Some p, Some bp -> Obs.Profile.merge ~into:p bp
      | (Some _ | None), _ -> ());
      match record with
      | Some sink ->
          List.iter (fun bs -> Trajectory.merge ~into:sink bs) block_sinks
      | None -> ())
    results

(* The stopping criterion of run_until, also reported as the "worst"
   interval in progress records: relative half-width, judged absolutely
   when the mean is 0, [infinity] while the interval is undefined. *)
let interval_badness ~confidence acc =
  let ci = Stats.Ci.of_welford ~confidence acc in
  if Float.is_nan ci.Stats.Ci.half_width then infinity
  else if ci.Stats.Ci.mean = 0.0 then ci.Stats.Ci.half_width
  else Stats.Ci.relative_half_width ci

let worst_badness ~confidence accs =
  Array.fold_left
    (fun w acc -> Float.max w (interval_badness ~confidence acc))
    0.0 accs

let emit_progress ~progress ~confidence ~rewards ~accs ~t0 ~completed ~target
    ~estimated =
  match progress with
  | None -> ()
  | Some f ->
      let elapsed = now () -. t0 in
      let cis =
        List.mapi
          (fun j (r : Reward.spec) ->
            (r.Reward.name, Stats.Ci.of_welford ~confidence accs.(j)))
          rewards
      in
      let eta =
        if completed <= 0 then None
        else
          let remaining = Int.max 0 (estimated - completed) in
          Some (elapsed *. float_of_int remaining /. float_of_int completed)
      in
      f
        {
          completed;
          target;
          elapsed;
          eta;
          worst_rel_hw = worst_badness ~confidence accs;
          cis;
        }

(* One convergence point per reward after each merged chunk/batch:
   recorded from the coordinating thread on the merged accumulators, so
   the trajectory is the deterministic sequence of published estimates. *)
let record_convergence ~convergence ~confidence ~rewards ~accs ~completed =
  match convergence with
  | None -> ()
  | Some conv ->
      List.iteri
        (fun j (r : Reward.spec) ->
          let ci = Stats.Ci.of_welford ~confidence accs.(j) in
          Obs.Convergence.record conv ~measure:r.Reward.name ~n:completed
            ~value:ci.Stats.Ci.mean ~half_width:ci.Stats.Ci.half_width
            ~confidence)
        rewards

let results_of ~confidence ~rewards ~accs ~defined ~n_runs =
  List.mapi
    (fun j (r : Reward.spec) ->
      {
        name = r.Reward.name;
        ci = Stats.Ci.of_welford ~confidence accs.(j);
        welford = accs.(j);
        n_defined = defined.(j);
        n_runs;
      })
    rewards

(* The batch loop behind run and run_until: while [finished] says more
   replications are needed, run the next [next_batch] of them over the
   domains, fold them into the accumulators and sinks, record convergence
   and report progress. Substream-per-replication makes the estimates
   independent of how replications are batched. *)
let batch_loop ~domains ~confidence ?metrics ?profile ?convergence ?progress
    ?record ~seed ~target ~next_batch ~finished ~estimated s =
  let t0 = now () in
  (* Substream [!completed] of the seed: each batch starts where the
     previous one ended, so no batch jumps from the root. *)
  let cursor = ref (Prng.Stream.create ~seed) in
  let n_rewards = List.length s.rewards in
  let accs = Array.init n_rewards (fun _ -> Stats.Welford.create ()) in
  let defined = Array.make n_rewards 0 in
  let with_metrics = Option.is_some metrics in
  let completed = ref 0 in
  while not (finished ~accs !completed) do
    let count = next_batch !completed in
    let d = Int.max 1 (Int.min domains count) in
    let blocks =
      if Option.is_some record then
        blocks_of_aligned ~domains:d ~first:!completed ~count
      else blocks_of ~domains:d ~first:!completed ~count
    in
    let results, next =
      run_blocks s ~cursor:!cursor ~completed:!completed ~with_metrics
        ~profile ~record blocks
    in
    cursor := next;
    consume ~accs ~defined ~metrics ~profile ~record results;
    completed := !completed + count;
    record_convergence ~convergence ~confidence ~rewards:s.rewards ~accs
      ~completed:!completed;
    emit_progress ~progress ~confidence ~rewards:s.rewards ~accs ~t0
      ~completed:!completed ~target ~estimated:(estimated ~accs !completed)
  done;
  (match metrics with
  | Some m -> Metrics.add_wall m (now () -. t0)
  | None -> ());
  results_of ~confidence ~rewards:s.rewards ~accs ~defined ~n_runs:!completed

let run ?(domains = 1) ?(confidence = 0.95) ?metrics ?profile ?convergence
    ?progress ?record ~seed ~reps s =
  if reps <= 0 then invalid_arg "Runner.run: reps must be >= 1";
  if domains <= 0 then invalid_arg "Runner.run: domains must be >= 1";
  let domains = Int.min domains reps in
  (* With a progress callback or a convergence recorder, replications
     run in ~20 chunks so the caller hears from us (and the recorder
     sees a trajectory, not one point). Recording rounds chunks up to
     whole segments so chunking cannot change how segments are formed. *)
  let chunk =
    if Option.is_none progress && Option.is_none convergence then reps
    else
      let c = Int.max domains ((reps + 19) / 20) in
      if Option.is_some record then
        (c + record_segment - 1) / record_segment * record_segment
      else c
  in
  batch_loop ~domains ~confidence ?metrics ?profile ?convergence ?progress
    ?record ~seed ~target:reps
    ~next_batch:(fun completed -> Int.min chunk (reps - completed))
    ~finished:(fun ~accs:_ completed -> completed >= reps)
    ~estimated:(fun ~accs:_ _ -> reps)
    s

let run_until ?(domains = 1) ?(confidence = 0.95) ?(batch = 500)
    ?(max_reps = 100_000) ?metrics ?profile ?convergence ?progress ?record
    ~rel_precision ~seed s =
  if not (rel_precision > 0.0) then
    invalid_arg "Runner.run_until: rel_precision must be > 0";
  if batch <= 0 then invalid_arg "Runner.run_until: batch must be > 0";
  (* Recording aligns batches to whole segments (see record_segment). *)
  let batch =
    if Option.is_some record then
      (batch + record_segment - 1) / record_segment * record_segment
    else batch
  in
  let finished ~accs total =
    total >= max_reps
    || (total >= 2 && worst_badness ~confidence accs <= rel_precision)
  in
  (* Half-widths shrink like 1/sqrt(n), so the worst interval needs about
     n · (badness / target)² replications in total; the ETA scales the
     elapsed time to that estimate (capped at max_reps). *)
  let estimated ~accs total =
    let w = worst_badness ~confidence accs in
    if w <= rel_precision then total
    else if Float.is_finite w && total > 0 then
      let n = float_of_int total *. ((w /. rel_precision) ** 2.0) in
      Int.min max_reps
        (Int.max total (int_of_float (Float.min n (float_of_int max_reps))))
    else max_reps
  in
  batch_loop ~domains ~confidence ?metrics ?profile ?convergence ?progress
    ?record ~seed ~target:max_reps
    ~next_batch:(fun total -> Int.min batch (max_reps - total))
    ~finished ~estimated s
