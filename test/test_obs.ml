(* Tests for lib/obs: the metrics registry (kinds, merging, snapshot
   schema and determinism), the phase profiler (self-time accounting,
   spans, GC capture) and the convergence recorder — plus their
   integration with the runner, the splitting engine and the CTMC
   solvers. *)

module R = Obs.Registry
module P = Obs.Profile
module C = Obs.Convergence

(* --- registry --- *)

let test_counter_and_gauge () =
  let reg = R.create () in
  let s = R.scope reg "s" in
  let c = R.counter s "c" in
  R.incr c;
  R.add c 41;
  Alcotest.(check int) "counter" 42 (R.counter_value c);
  Alcotest.(check int) "same handle" 42 (R.counter_value (R.counter s "c"));
  let g = R.gauge s "g" in
  R.set g 2.5;
  R.gauge_add g 0.5;
  Alcotest.(check (float 1e-12)) "gauge" 3.0 (R.gauge_value g);
  let g2 = R.gauge s "g2" in
  R.gauge_add g2 1.5;
  Alcotest.(check (float 1e-12)) "gauge_add from nan" 1.5 (R.gauge_value g2)

let test_kind_mismatch () =
  let reg = R.create () in
  let s = R.scope reg "s" in
  let (_ : R.counter) = R.counter s "x" in
  (match R.gauge s "x" with
  | _ -> Alcotest.fail "gauge over counter should raise"
  | exception Invalid_argument _ -> ());
  match R.histogram s "x" with
  | _ -> Alcotest.fail "histogram over counter should raise"
  | exception Invalid_argument _ -> ()

(* Pins the itua-metrics/1 schema byte-for-byte on a tiny registry:
   sorted scopes/metrics, integer-rendered floats, power-of-two bucket
   upper bounds, non-zero buckets only. *)
let test_snapshot_schema () =
  let reg = R.create () in
  let s = R.scope reg "h" in
  let h = R.histogram s "lat" in
  List.iter (fun v -> R.observe h v) [ 1.0; 2.0; 3.0 ];
  Alcotest.(check string)
    "snapshot"
    "{\"schema\":\"itua-metrics/1\",\"scopes\":[{\"scope\":\"h\",\"metrics\":\
     [{\"name\":\"lat\",\"kind\":\"histogram\",\"count\":3,\"sum\":6,\"min\":\
     1,\"max\":3,\"buckets\":[{\"le\":1,\"count\":1},{\"le\":2,\"count\":1},\
     {\"le\":4,\"count\":1}]}]}]}"
    (Report.Json.to_string (R.to_json reg))

let test_volatile_filter () =
  let reg = R.create () in
  let s = R.scope reg "s" in
  R.add (R.counter s "kept") 1;
  R.set (R.gauge ~volatile:true s "dropped") 1.23;
  let full = Report.Json.to_string (R.to_json reg) in
  let core = Report.Json.to_string (R.to_json ~volatile:false reg) in
  let has needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "full has volatile" true (has "dropped" full);
  Alcotest.(check bool) "full flags volatile" true
    (has "\"volatile\":true" full);
  Alcotest.(check bool) "core drops volatile" false (has "dropped" core);
  Alcotest.(check bool) "core keeps counter" true (has "kept" core)

let test_merge_policies () =
  let a = R.create () and b = R.create () in
  let fill reg cv gmax gsum gmin =
    let s = R.scope reg "s" in
    R.add (R.counter s "c") cv;
    R.set (R.gauge s "gmax") gmax;
    R.set (R.gauge ~merge:`Sum s "gsum") gsum;
    R.set (R.gauge ~merge:`Min s "gmin") gmin;
    R.observe (R.histogram s "h") (float_of_int cv)
  in
  fill a 3 1.0 1.0 1.0;
  fill b 4 2.0 2.0 2.0;
  R.merge ~into:a b;
  let s = R.scope a "s" in
  Alcotest.(check int) "counters add" 7 (R.counter_value (R.counter s "c"));
  Alcotest.(check (float 0.0)) "max" 2.0 (R.gauge_value (R.gauge s "gmax"));
  Alcotest.(check (float 0.0)) "sum" 3.0 (R.gauge_value (R.gauge s "gsum"));
  Alcotest.(check (float 0.0))
    "min" 1.0
    (R.gauge_value (R.gauge ~merge:`Min s "gmin"));
  (* the missing-scope path: merging into an empty registry copies *)
  let c = R.create () in
  R.merge ~into:c a;
  Alcotest.(check string)
    "copy merge equals source"
    (Report.Json.to_string (R.to_json a))
    (Report.Json.to_string (R.to_json c))

let test_merge_order_independent () =
  (* integer-only metrics merge identically in any order — the
     structural basis of the cross-cores determinism claim *)
  let mk cv hv =
    let reg = R.create () in
    let s = R.scope reg "s" in
    R.add (R.counter s "c") cv;
    R.observe (R.histogram s "h") hv;
    reg
  in
  let render regs =
    let into = R.create () in
    List.iter (fun r -> R.merge ~into r) regs;
    Report.Json.to_string (R.to_json into)
  in
  let r1 = mk 1 1.0 and r2 = mk 2 7.0 and r3 = mk 4 100.0 in
  Alcotest.(check string)
    "permuted merge"
    (render [ r1; r2; r3 ])
    (render [ r3; r1; r2 ])

(* --- engine metrics guard --- *)

let test_events_per_sec_guard () =
  let model = (Test_models.two_state ~lambda:1.0 ~mu:10.0).Test_models.ts_model in
  let m = Sim.Metrics.create ~model in
  Alcotest.(check bool)
    "nan with no wall time" true
    (Float.is_nan (Sim.Metrics.events_per_sec m));
  Sim.Metrics.add_wall m 1e-9;
  Alcotest.(check bool)
    "nan below a microsecond, not inf" true
    (Float.is_nan (Sim.Metrics.events_per_sec m));
  Sim.Metrics.add_wall m 2.0;
  let (_ : Sim.Executor.outcome) =
    Sim.Executor.run ~metrics:m ~model
      ~config:(Sim.Executor.config ~horizon:10.0 ())
      ~stream:(Prng.Stream.create ~seed:7L)
      ~observer:Sim.Observer.nop ()
  in
  Alcotest.(check bool)
    "finite once real wall time recorded" true
    (Float.is_finite (Sim.Metrics.events_per_sec m))

(* --- cross-cores snapshot determinism --- *)

let spec_two_state () =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:10.0 in
  let model = ts.Test_models.ts_model in
  Sim.Runner.spec ~model ~horizon:20.0
    [
      Sim.Reward.time_average ~name:"avail" ~until:20.0 (fun m ->
          float_of_int (San.Marking.get m ts.Test_models.up));
    ]

let snapshot_core ~domains =
  let spec = spec_two_state () in
  let metrics = Sim.Metrics.create ~model:spec.Sim.Runner.model in
  let profile = P.create () in
  let (_ : Sim.Runner.result list) =
    Sim.Runner.run ~domains ~metrics ~profile ~seed:42L ~reps:256 spec
  in
  let reg = R.create () in
  Sim.Metrics.export metrics ~into:reg;
  P.export profile ~into:reg;
  Report.Json.to_string (R.to_json ~volatile:false reg)

let test_snapshot_deterministic_across_cores () =
  let one = snapshot_core ~domains:1 in
  let four = snapshot_core ~domains:4 in
  Alcotest.(check string) "1 vs 4 domains, volatile excluded" one four

(* Registry.pp is the text view of a snapshot (run --telemetry): every
   (scope, metric) pair of the JSON appears exactly once in the table,
   under its scope's header, and non-finite gauges print. *)
let test_registry_pp_matches_snapshot () =
  let spec = spec_two_state () in
  let metrics = Sim.Metrics.create ~model:spec.Sim.Runner.model in
  let profile = P.create () in
  let (_ : Sim.Runner.result list) =
    Sim.Runner.run ~metrics ~profile ~seed:42L ~reps:64 spec
  in
  let reg = R.create () in
  Sim.Metrics.export metrics ~into:reg;
  P.export profile ~into:reg;
  let odd = R.scope reg "odd" in
  R.set (R.gauge odd "nan_gauge") nan;
  R.set (R.gauge odd "inf_gauge") infinity;
  let (_ : R.histogram) = R.histogram odd "empty_histogram" in
  let module J = Report.Json in
  let get k j = Option.get (J.member k j) in
  let from_json =
    List.concat_map
      (fun sc ->
        let scope = Option.get (J.str (get "scope" sc)) in
        List.map
          (fun m -> (scope, Option.get (J.str (get "name" m))))
          (Option.get (J.arr (get "metrics" sc))))
      (Option.get (J.arr (get "scopes" (R.to_json reg))))
  in
  let text = Format.asprintf "%a" R.pp reg in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  let words l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  (* Scope headers are "name:" lines; metric lines are indented. *)
  let headers, from_pp, _ =
    List.fold_left
      (fun (headers, metrics, scope) line ->
        if line.[0] = ' ' then
          (headers, (scope, List.hd (words line)) :: metrics, scope)
        else
          let h = String.sub line 0 (String.length line - 1) in
          (h :: headers, metrics, h))
      ([], [], "") lines
  in
  Alcotest.(check (list (pair string string)))
    "each snapshot metric once, under its scope"
    (List.sort compare from_json)
    (List.sort compare from_pp);
  Alcotest.(check (list string))
    "each scope header once"
    (List.sort_uniq compare (List.map fst from_json))
    (List.sort compare headers);
  List.iter
    (fun shown ->
      Alcotest.(check bool)
        (String.concat " " shown) true
        (List.exists (fun l -> words l = shown) lines))
    [ [ "nan_gauge"; "nan" ]; [ "inf_gauge"; "inf" ] ]

(* --- profiler --- *)

let test_profiler_self_time_accounting () =
  let p = P.create () in
  let t0 = Obs.Clock.now_ns () in
  let spin () =
    let s = ref 0.0 in
    for i = 1 to 200_000 do
      s := !s +. sqrt (float_of_int i)
    done;
    ignore (Sys.opaque_identity !s)
  in
  P.span p P.Propagate (fun () ->
      spin ();
      P.span p P.Sample spin);
  P.span p P.Heap_push spin;
  let wall = Obs.Clock.seconds_since t0 in
  Alcotest.(check int) "propagate count" 1 (P.count p P.Propagate);
  Alcotest.(check int) "sample count" 1 (P.count p P.Sample);
  Alcotest.(check int) "heap_push count" 1 (P.count p P.Heap_push);
  Alcotest.(check int) "stabilize untouched" 0 (P.count p P.Stabilize);
  Alcotest.(check bool)
    "every phase self-time non-negative" true
    (Array.for_all (fun ph -> P.self_seconds p ph >= 0.0) P.phases);
  Alcotest.(check bool)
    "attributed <= wall" true
    (P.attributed_seconds p <= wall);
  Alcotest.(check bool)
    "attributed is the phase sum" true
    (Float.abs
       (P.attributed_seconds p
       -. Array.fold_left (fun acc ph -> acc +. P.self_seconds p ph) 0.0
            P.phases)
    < 1e-12)

let test_profiler_span_exception_safe () =
  let p = P.create () in
  (try P.span p P.Checkpoint (fun () -> failwith "boom") with Failure _ -> ());
  (* the phase stack must have been popped: a further span still nests *)
  P.span p P.Checkpoint (fun () -> ());
  Alcotest.(check int) "both spans counted" 2 (P.count p P.Checkpoint)

let test_profiler_merge_and_gc () =
  let a = P.create () in
  let b = P.fork ~tid:3 a in
  P.span a P.Propagate (fun () -> ());
  P.span b P.Propagate (fun () -> ());
  P.span b P.Stabilize (fun () -> ());
  let (_ : float array) = Array.make 100_000 0.0 in
  P.gc_capture b;
  P.merge ~into:a b;
  Alcotest.(check int) "propagate counts add" 2 (P.count a P.Propagate);
  Alcotest.(check int) "stabilize arrives" 1 (P.count a P.Stabilize);
  Alcotest.(check bool)
    "allocated words captured" true
    (P.gc_allocated_words a > 0.0)

(* The allocated-words total, pinned to the runtime's exact counter on
   a known allocation: 2M two-word ref cells. The profiler reads the
   domain's GC counters, which may lag the live minor heap by up to one
   minor heap, so that is the slack. Allocation by another domain must
   not be counted. *)
let test_profiler_gc_words_pinned () =
  let cells = 2_000_000 in
  let alloc () =
    for i = 1 to cells do
      ignore (Sys.opaque_identity (ref i))
    done
  in
  let slack = float_of_int (Gc.get ()).Gc.minor_heap_size in
  let p = P.create () in
  let before = Gc.minor_words () in
  alloc ();
  let minor = Gc.minor_words () -. before in
  P.gc_capture p;
  let words = P.gc_allocated_words p in
  Alcotest.(check (float 1024.0))
    "Gc.minor_words delta is 2 words per cell"
    (float_of_int (2 * cells))
    minor;
  Alcotest.(check (float slack)) "gc_allocated_words" minor words;
  Domain.join (Domain.spawn alloc);
  P.gc_capture p;
  Alcotest.(check (float slack))
    "another domain's allocation not counted" words
    (P.gc_allocated_words p)

let test_executor_profile_sums_below_wall () =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:10.0 in
  let p = P.create () in
  let t0 = Obs.Clock.now_ns () in
  for seed = 1 to 20 do
    let (_ : Sim.Executor.outcome) =
      Sim.Executor.run ~profile:p ~model:ts.Test_models.ts_model
        ~config:(Sim.Executor.config ~horizon:50.0 ())
        ~stream:(Prng.Stream.create ~seed:(Int64.of_int seed))
        ~observer:Sim.Observer.nop ()
    in
    ()
  done;
  let wall = Obs.Clock.seconds_since t0 in
  Alcotest.(check bool)
    "phases were hit" true
    (P.count p P.Sample > 0 && P.count p P.Heap_pop > 0
    && P.count p P.Propagate > 0);
  Alcotest.(check bool)
    "self-times sum at most measured wall" true
    (P.attributed_seconds p <= wall)

let test_trace_spans_jsonl () =
  let p = P.create ~spans:true () in
  P.span p P.Propagate (fun () -> P.span p P.Sample (fun () -> ()));
  P.span p P.Stabilize (fun () -> ());
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  P.write_trace path p;
  let lines =
    match Report.read_jsonl path with
    | Ok l -> l
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  Alcotest.(check int) "one event per completed span" 3 (List.length lines);
  List.iter
    (fun j ->
      let module J = Report.Json in
      Alcotest.(check (option string))
        "complete event" (Some "X")
        (Option.bind (J.member "ph" j) J.str);
      let field k = Option.bind (J.member k j) J.num in
      Alcotest.(check bool)
        "ts and dur non-negative" true
        (match (field "ts", field "dur") with
        | Some ts, Some dur -> ts >= 0.0 && dur >= 0.0
        | _ -> false))
    lines

(* --- convergence recorder --- *)

let test_convergence_recorder () =
  let c = C.create () in
  Alcotest.(check bool) "fresh is empty" true (C.points c = []);
  C.record c ~measure:"m" ~n:10 ~value:0.5 ~half_width:0.2 ~confidence:0.95;
  C.record c ~measure:"m" ~n:20 ~value:0.45;
  let pts = C.points c in
  Alcotest.(check int) "two points" 2 (List.length pts);
  let p2 = List.nth pts 1 in
  Alcotest.(check bool)
    "defaults are nan" true
    (Float.is_nan p2.C.half_width && Float.is_nan p2.C.confidence);
  Alcotest.(check string)
    "json nulls non-finite"
    "[{\"measure\":\"m\",\"n\":10,\"value\":0.5,\"half_width\":0.2,\
     \"confidence\":0.95},{\"measure\":\"m\",\"n\":20,\"value\":0.45,\
     \"half_width\":null,\"confidence\":null}]"
    (Report.Json.to_string (C.to_json c))

let test_runner_convergence_trajectory () =
  let spec = spec_two_state () in
  let conv = C.create () in
  let (_ : Sim.Runner.result list) =
    Sim.Runner.run ~convergence:conv ~seed:11L ~reps:200 spec
  in
  let pts = C.points conv in
  Alcotest.(check bool)
    "chunked even without progress" true
    (List.length pts > 1);
  let ns = List.map (fun p -> p.C.n) pts in
  Alcotest.(check bool)
    "n non-decreasing up to the rep count" true
    (List.for_all (fun n -> n >= 1 && n <= 200) ns
    && List.sort compare ns = ns);
  Alcotest.(check int)
    "last point covers every replication" 200
    (List.fold_left Int.max 0 ns);
  Alcotest.(check bool)
    "half-widths defined once n >= 2" true
    (List.for_all
       (fun p -> p.C.n < 2 || Float.is_finite p.C.half_width)
       pts)

(* --- splitting export --- *)

let test_splitting_export () =
  let td = Test_models.tandem ~r1:2.0 ~r2:1.0 in
  let importance m = San.Marking.get m td.Test_models.stage in
  let r =
    Sim.Splitting.run ~model:td.Test_models.td_model
      ~config:(Sim.Executor.config ~horizon:1.0 ())
      ~importance ~levels:2 ~clones:2 ~initial:64 ~seed:5L ()
  in
  let conv = C.create () in
  let reg = R.create () in
  Sim.Splitting.export ~convergence:conv r ~into:reg;
  let stages = Array.length r.Sim.Splitting.estimate.Stats.Splitting.stages in
  Alcotest.(check int)
    "one convergence point per stage" stages
    (List.length (C.points conv));
  let s = R.scope reg "splitting" in
  Alcotest.(check int)
    "stage count exported" stages
    (R.counter_value (R.counter s "stages"));
  Alcotest.(check int)
    "trial total exported" r.Sim.Splitting.total_trials
    (R.counter_value (R.counter s "trials"));
  let last = List.nth (C.points conv) (stages - 1) in
  Alcotest.(check (float 1e-12))
    "last point is the final estimate"
    r.Sim.Splitting.estimate.Stats.Splitting.probability last.C.value

(* --- CTMC instrumentation --- *)

let test_ctmc_steady_obs () =
  let q = Test_models.mm1k ~lambda:1.0 ~mu:2.0 ~k:4 in
  let reg = R.create () in
  let conv = C.create () in
  let p = P.create () in
  let chain = Ctmc.Explore.explore ~obs:reg ~profile:p q.Test_models.q_model in
  let (_ : float array) =
    Ctmc.Steady.distribution ~obs:reg ~convergence:conv ~profile:p chain
  in
  let s = R.scope reg "ctmc" in
  Alcotest.(check int)
    "states counted" 5
    (R.counter_value (R.counter s "explore_states"));
  Alcotest.(check bool)
    "solver iterated" true
    (R.counter_value (R.counter s "steady_iterations") > 0);
  Alcotest.(check bool)
    "delta trajectory recorded and shrinking" true
    (match C.points conv with
    | [] -> false
    | pts ->
        let first = List.hd pts and last = List.nth pts (List.length pts - 1) in
        last.C.value <= first.C.value);
  Alcotest.(check bool)
    "explore and solve phases attributed" true
    (P.count p P.Ctmc_explore = 1 && P.count p P.Ctmc_solve = 1)

let test_ctmc_transient_obs () =
  let q = Test_models.mm1k ~lambda:1.0 ~mu:2.0 ~k:4 in
  let chain = Ctmc.Explore.explore q.Test_models.q_model in
  let reg = R.create () in
  let (_ : float array) = Ctmc.Transient.probabilities ~obs:reg chain ~t:2.0 in
  let s = R.scope reg "ctmc" in
  Alcotest.(check bool)
    "uniformization steps counted" true
    (R.counter_value (R.counter s "uniformization_steps") > 0)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "snapshot schema" `Quick test_snapshot_schema;
          Alcotest.test_case "volatile filter" `Quick test_volatile_filter;
          Alcotest.test_case "merge policies" `Quick test_merge_policies;
          Alcotest.test_case "merge order-independent" `Quick
            test_merge_order_independent;
          Alcotest.test_case "pp renders every snapshot metric" `Quick
            test_registry_pp_matches_snapshot;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "events/sec guard" `Quick
            test_events_per_sec_guard;
          Alcotest.test_case "snapshot deterministic across cores" `Slow
            test_snapshot_deterministic_across_cores;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "self-time accounting" `Quick
            test_profiler_self_time_accounting;
          Alcotest.test_case "span exception-safe" `Quick
            test_profiler_span_exception_safe;
          Alcotest.test_case "merge and gc" `Quick test_profiler_merge_and_gc;
          Alcotest.test_case "gc words pinned to Gc.minor_words" `Quick
            test_profiler_gc_words_pinned;
          Alcotest.test_case "executor sums below wall" `Quick
            test_executor_profile_sums_below_wall;
          Alcotest.test_case "trace spans jsonl" `Quick test_trace_spans_jsonl;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "recorder" `Quick test_convergence_recorder;
          Alcotest.test_case "runner trajectory" `Quick
            test_runner_convergence_trajectory;
          Alcotest.test_case "splitting export" `Quick test_splitting_export;
        ] );
      ( "ctmc",
        [
          Alcotest.test_case "steady obs" `Quick test_ctmc_steady_obs;
          Alcotest.test_case "transient obs" `Quick test_ctmc_transient_obs;
        ] );
    ]
