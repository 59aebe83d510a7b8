(* Tests for the sim library: event heap, executor semantics (timing,
   instantaneous priority, reactivation policies), reward estimators, and
   the replication runner validated against closed-form results. *)

let stream seed = Prng.Stream.create ~seed:(Int64.of_int seed)

(* --- event heap --- *)

(* Pop every entry: (activity, time) in pop order. *)
let drain_heap h =
  let rec go acc =
    let act = Sim.Event_heap.pop h in
    if act < 0 then List.rev acc
    else go ((act, Sim.Event_heap.time h act) :: acc)
  in
  go []

let heap_of_times times =
  let h = Sim.Event_heap.create (List.length times) in
  List.iteri (fun act time -> Sim.Event_heap.push h ~act ~time) times;
  h

let test_heap_ordering () =
  let h = heap_of_times [ 5.0; 1.0; 3.0; 0.5; 4.0; 2.0 ] in
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 0.5; 1.0; 2.0; 3.0; 4.0; 5.0 ]
    (List.map snd (drain_heap h))

let test_heap_fifo_ties () =
  let h = heap_of_times (List.init 10 (fun _ -> 1.0)) in
  Alcotest.(check (list int))
    "insertion order on equal times" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map fst (drain_heap h))

let test_heap_rejects_bad_time () =
  let h = Sim.Event_heap.create 1 in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "time %g rejected" t)
        true
        (match Sim.Event_heap.push h ~act:0 ~time:t with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ -1.0; Float.nan; Float.infinity ];
  Alcotest.(check int) "nothing pushed" 0 (Sim.Event_heap.size h)

(* A re-pushed activity takes a fresh insertion number: it goes behind
   an equal-time entry pushed before the re-push. *)
let test_heap_repush_tie () =
  let h = Sim.Event_heap.create 3 in
  Sim.Event_heap.push h ~act:0 ~time:1.0;
  Sim.Event_heap.push h ~act:1 ~time:1.0;
  Sim.Event_heap.push h ~act:2 ~time:2.0;
  Sim.Event_heap.push h ~act:0 ~time:1.0;
  Alcotest.(check int) "one entry per activity" 3 (Sim.Event_heap.size h);
  Alcotest.(check (list int)) "re-push goes last among equals" [ 1; 0; 2 ]
    (List.map fst (drain_heap h))

let test_heap_copy_independent () =
  let h = heap_of_times [ 3.0; 1.0; 2.0; 1.0 ] in
  let c = Sim.Event_heap.copy h in
  Alcotest.(check int) "copy pops the earliest" 1 (Sim.Event_heap.pop c);
  Alcotest.(check bool) "original keeps it" true (Sim.Event_heap.mem h 1);
  Sim.Event_heap.remove h 3;
  Sim.Event_heap.push h ~act:2 ~time:0.5;
  Alcotest.(check (list (pair int (float 0.0))))
    "copy unaffected by the original"
    [ (3, 1.0); (2, 2.0); (0, 3.0) ]
    (drain_heap c);
  Alcotest.(check (list (pair int (float 0.0))))
    "original unaffected by the copy"
    [ (2, 0.5); (1, 1.0); (0, 3.0) ]
    (drain_heap h)

(* [clear] leaves a heap that behaves as a fresh one, and [blit] one
   that pops exactly what the source (or its copy) pops, equal-time ties
   included, whatever the destination held before. *)
let test_heap_clear_and_blit () =
  let times = [ 3.0; 1.0; 2.0; 1.0; 5.0 ] in
  let dirty () =
    let h = heap_of_times [ 0.5; 4.0; 0.5; 9.0; 1.0 ] in
    ignore (Sim.Event_heap.pop h : int);
    h
  in
  let h = dirty () in
  Sim.Event_heap.clear h;
  Alcotest.(check int) "cleared heap is empty" 0 (Sim.Event_heap.size h);
  List.iteri (fun act time -> Sim.Event_heap.push h ~act ~time) times;
  Alcotest.(check (list (pair int (float 0.0))))
    "cleared heap pops as a fresh one"
    (drain_heap (heap_of_times times))
    (drain_heap h);
  let src = heap_of_times times in
  ignore (Sim.Event_heap.pop src : int);
  Sim.Event_heap.push src ~act:1 ~time:2.0;
  let live = Sim.Event_heap.size src in
  let dst = dirty () in
  Sim.Event_heap.blit ~src ~dst;
  Sim.Event_heap.push dst ~act:4 ~time:2.0;
  let expected = Sim.Event_heap.copy src in
  Sim.Event_heap.push expected ~act:4 ~time:2.0;
  Alcotest.(check (list (pair int (float 0.0))))
    "blit pops as the source's copy" (drain_heap expected) (drain_heap dst);
  Alcotest.(check int) "source untouched" live (Sim.Event_heap.size src);
  Alcotest.check_raises "capacities must match"
    (Invalid_argument "Event_heap.blit: heaps of different capacities")
    (fun () -> Sim.Event_heap.blit ~src ~dst:(Sim.Event_heap.create 3))

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap pops sorted" ~count:300
    QCheck2.Gen.(list_size (int_range 0 200) (float_range 0.0 1e6))
    (fun times ->
      let popped = List.map snd (drain_heap (heap_of_times times)) in
      popped = List.stable_sort compare times)

(* Differential test against a lazy-deletion reference: a list of
   (time, seq, act, version) entries, where canceling or re-pushing an
   activity bumps its version and a pop skips entries whose version is
   stale. Both must pop the same (act, time) sequence, and agree on
   [size] and [mem] after every operation. *)
type heap_op = Push of int * float | Remove of int | Pop

let heap_op_gen n =
  QCheck2.Gen.(
    frequency
      [
        ( 5,
          map2
            (fun act t -> Push (act, float_of_int t /. 2.0))
            (int_range 0 (n - 1))
            (int_range 0 8) );
        (2, map (fun act -> Remove act) (int_range 0 (n - 1)));
        (3, pure Pop);
      ])

let prop_heap_matches_lazy_reference =
  let n = 6 in
  QCheck2.Test.make ~name:"heap matches lazy reference"
    ~count:500
    QCheck2.Gen.(list_size (int_range 0 80) (heap_op_gen n))
    (fun ops ->
      let h = Sim.Event_heap.create n in
      let entries = ref [] and seq = ref 0 in
      let version = Array.make n 0 in
      let live (_, _, act, v) = version.(act) = v in
      let ref_pop () =
        let sorted =
          List.sort
            (fun (t1, s1, _, _) (t2, s2, _, _) -> compare (t1, s1) (t2, s2))
            (List.filter live !entries)
        in
        match sorted with
        | [] -> None
        | ((t, _, act, _) as e) :: _ ->
            entries := List.filter (fun x -> x != e) !entries;
            version.(act) <- version.(act) + 1;
            Some (act, t)
      in
      let heap_pop () =
        let act = Sim.Event_heap.pop h in
        if act < 0 then None else Some (act, Sim.Event_heap.time h act)
      in
      List.for_all
        (fun op ->
          (match op with
          | Push (act, t) ->
              version.(act) <- version.(act) + 1;
              entries := (t, !seq, act, version.(act)) :: !entries;
              incr seq;
              Sim.Event_heap.push h ~act ~time:t
          | Remove act ->
              version.(act) <- version.(act) + 1;
              Sim.Event_heap.remove h act
          | Pop -> ());
          let same_pop = match op with Pop -> heap_pop () = ref_pop () | _ -> true in
          same_pop
          && Sim.Event_heap.size h = List.length (List.filter live !entries)
          && List.for_all
               (fun act ->
                 Sim.Event_heap.mem h act
                 = List.exists (fun ((_, _, a, _) as e) -> a = act && live e)
                     !entries)
               (List.init n Fun.id))
        ops
      && drain_heap h
         = List.of_seq
             (Seq.unfold (fun () -> Option.map (fun x -> (x, ())) (ref_pop ())) ()))

(* --- deterministic executor semantics --- *)

(* A clock that fires every [period] and counts firings. *)
let clock_model ~period =
  let b = San.Model.Builder.create "clock" in
  let count = San.Model.Builder.int_place b "count" in
  San.Model.Builder.timed_dist_ir b ~name:"tick"
    ~dist:San.(Activity.DDet (Effect.RConst period))
    ~guard:(San.Effect.Const true)
    [
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Inc (count, San.Effect.Int 1) ]);
    ];
  (San.Model.Builder.build b, count)

let run_simple ?stop model ~horizon ~seed ~observer =
  let cfg = Sim.Executor.config ?stop ~horizon () in
  Sim.Executor.run ~model ~config:cfg ~stream:(stream seed) ~observer ()

let test_deterministic_clock () =
  let model, count = clock_model ~period:1.0 in
  let outcome = run_simple model ~horizon:5.5 ~seed:1 ~observer:Sim.Observer.nop in
  Alcotest.(check int) "five ticks in 5.5" 5
    (San.Marking.get outcome.Sim.Executor.final count);
  Alcotest.(check int) "events counted" 5 outcome.Sim.Executor.events;
  Alcotest.(check (float 1e-9)) "last event at t=5" 5.0
    outcome.Sim.Executor.end_time;
  Alcotest.(check bool) "not stopped early" false
    outcome.Sim.Executor.stopped_early

let test_stop_predicate () =
  let model, count = clock_model ~period:1.0 in
  let place = San.Model.find_place model "count" in
  let outcome =
    run_simple model ~horizon:100.0 ~seed:1 ~observer:Sim.Observer.nop
      ~stop:(fun m -> San.Marking.get m place >= 3)
  in
  Alcotest.(check bool) "stopped early" true outcome.Sim.Executor.stopped_early;
  Alcotest.(check int) "stopped at 3" 3
    (San.Marking.get outcome.Sim.Executor.final count)

(* Instantaneous priority: a timed firing enables a chain of instantaneous
   activities that must complete before any further time passes. *)
let test_instantaneous_chain () =
  let b = San.Model.Builder.create "chain" in
  let trigger = San.Model.Builder.int_place b "trigger" in
  let s1 = San.Model.Builder.int_place b "s1" in
  let s2 = San.Model.Builder.int_place b "s2" in
  San.Model.Builder.timed_dist_ir b ~name:"pulse"
    ~dist:San.(Activity.DDet (Effect.RConst 1.0))
    ~guard:San.Effect.(Cmp (Mark trigger, Eq, Int 0))
    [
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Set (trigger, San.Effect.Int 1) ]);
    ];
  San.Model.Builder.instantaneous_ir b ~name:"step1"
    ~guard:
      San.Effect.(All [ Cmp (Mark trigger, Eq, Int 1); Cmp (Mark s1, Eq, Int 0) ])
    San.Effect.(Ops [ Set (s1, Int 1) ]);
  San.Model.Builder.instantaneous_ir b ~name:"step2"
    ~guard:San.Effect.(All [ Cmp (Mark s1, Eq, Int 1); Cmp (Mark s2, Eq, Int 0) ])
    San.Effect.(Ops [ Set (s2, Int 1) ]);
  let model = San.Model.Builder.build b in
  (* Observe that both instantaneous firings happen at exactly t=1. *)
  let inst_times = ref [] in
  let observer =
    {
      Sim.Observer.nop with
      on_fire =
        (fun t a _ _ ->
          if San.Activity.is_instantaneous a then
            inst_times := t :: !inst_times);
    }
  in
  let outcome = run_simple model ~horizon:2.0 ~seed:3 ~observer in
  Alcotest.(check (list (float 1e-12)))
    "instantaneous at the pulse time" [ 1.0; 1.0 ] !inst_times;
  Alcotest.(check int) "s2 set" 1 (San.Marking.get outcome.Sim.Executor.final s2)

let test_stabilization_divergence_detected () =
  let b = San.Model.Builder.create "loop" in
  let p = San.Model.Builder.int_place b ~init:1 "p" in
  (* Always-enabled instantaneous activity: a modeling bug. *)
  San.Model.Builder.instantaneous_ir b ~name:"spin"
    ~guard:San.Effect.(Cmp (Mark p, Eq, Int 1))
    (* Net no change: stays enabled. *)
    San.Effect.(Ops [ Set (p, Int 1) ]);
  let model = San.Model.Builder.build b in
  let cfg = Sim.Executor.config ~max_inst_chain:1000 ~horizon:1.0 () in
  Alcotest.(check bool) "divergence raises" true
    (match
       Sim.Executor.run ~model ~config:cfg ~stream:(stream 4)
         ~observer:Sim.Observer.nop ()
     with
    | (_ : Sim.Executor.outcome) -> false
    | exception Sim.Executor.Stabilization_diverged _ -> true)

(* Reactivation policies: activity B (Det 2.0) reads, through its
   distribution, a place changed by activity A at t=1 (both branches of
   the delay are 2.0, so only the wake-up matters).  Under Keep, B still
   fires at t=2; under Resample, B's clock restarts at t=1 and fires at
   t=3. *)
let policy_model ~policy =
  let b = San.Model.Builder.create "policy" in
  let kick = San.Model.Builder.int_place b "kick" in
  let done_ = San.Model.Builder.int_place b "done" in
  San.Model.Builder.timed_dist_ir b ~name:"kicker"
    ~dist:San.(Activity.DDet (Effect.RConst 1.0))
    ~guard:San.Effect.(Cmp (Mark kick, Eq, Int 0))
    [
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Set (kick, San.Effect.Int 1) ]);
    ];
  San.Model.Builder.timed_dist_ir b ~name:"slow" ~policy
    ~dist:
      San.(
        Activity.DDet
          Effect.(RIf (Cmp (Mark kick, Eq, Int 1), RConst 2.0, RConst 2.0)))
    ~guard:San.Effect.(Cmp (Mark done_, Eq, Int 0))
    [
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Set (done_, San.Effect.Int 1) ]);
    ];
  (San.Model.Builder.build b, done_)

let first_done_time model done_ =
  let t = ref nan in
  let observer =
    {
      Sim.Observer.nop with
      on_fire =
        (fun time _ _ m ->
          if Float.is_nan !t && San.Marking.get m done_ = 1 then t := time);
    }
  in
  let (_ : Sim.Executor.outcome) =
    run_simple model ~horizon:10.0 ~seed:5 ~observer
  in
  !t

let test_policy_keep () =
  let model, done_ = policy_model ~policy:San.Activity.Keep in
  Alcotest.(check (float 1e-9)) "keep: fires at 2" 2.0
    (first_done_time model done_)

let test_policy_resample () =
  let model, done_ = policy_model ~policy:San.Activity.Resample in
  Alcotest.(check (float 1e-9)) "resample: restarted at 1, fires at 3" 3.0
    (first_done_time model done_)

(* Regression: an activity enabled during the t = 0 instantaneous setup
   must be scheduled exactly once — double scheduling doubles its
   effective rate (caught by cross-validating the ITUA model against its
   exact CTMC solution). *)
let test_no_double_scheduling_after_setup () =
  let b = San.Model.Builder.create "setup_race" in
  let armed = San.Model.Builder.int_place b "armed" in
  let fires = San.Model.Builder.int_place b "fires" in
  (* Instantaneous setup arms the timed activity at t = 0. *)
  San.Model.Builder.instantaneous_ir b ~name:"arm"
    ~guard:San.Effect.(Cmp (Mark armed, Eq, Int 0))
    San.Effect.(Ops [ Set (armed, Int 1) ]);
  San.Model.Builder.timed_exp_rate_ir b ~name:"fire"
    ~rate:(San.Effect.RConst 1.0)
    ~guard:San.Effect.(Cmp (Mark armed, Eq, Int 1))
    San.Effect.(Ops [ Inc (fires, Int 1) ]);
  let model = San.Model.Builder.build b in
  (* E[firings in 20h] = 20; with the double-scheduling bug it was 40.
     Average over replications and require a tight band. *)
  let spec =
    Sim.Runner.spec ~model ~horizon:20.0
      [
        Sim.Reward.final ~name:"fires" (fun m ->
            float_of_int (San.Marking.get m fires));
      ]
  in
  let r = List.hd (Sim.Runner.run ~seed:8L ~reps:2000 spec) in
  let mean = r.Sim.Runner.ci.Stats.Ci.mean in
  Alcotest.(check bool)
    (Printf.sprintf "mean firings %.2f within [19, 21]" mean)
    true
    (19.0 < mean && mean < 21.0)

(* Disabled activities are aborted: B (Det 2.0) is disabled by A at t=1
   and never fires. *)
let test_disabling_aborts () =
  let b = San.Model.Builder.create "abort" in
  let blocked = San.Model.Builder.int_place b "blocked" in
  let fired = San.Model.Builder.int_place b "fired" in
  San.Model.Builder.timed_dist_ir b ~name:"blocker"
    ~dist:San.(Activity.DDet (Effect.RConst 1.0))
    ~guard:San.Effect.(Cmp (Mark blocked, Eq, Int 0))
    [
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Set (blocked, San.Effect.Int 1) ]);
    ];
  San.Model.Builder.timed_dist_ir b ~name:"victim"
    ~dist:San.(Activity.DDet (Effect.RConst 2.0))
    ~guard:San.Effect.(Cmp (Mark blocked, Eq, Int 0))
    [
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Inc (fired, San.Effect.Int 1) ]);
    ];
  let model = San.Model.Builder.build b in
  let outcome = run_simple model ~horizon:10.0 ~seed:6 ~observer:Sim.Observer.nop in
  Alcotest.(check int) "victim never fired" 0
    (San.Marking.get outcome.Sim.Executor.final fired)

(* Observer advance intervals tile [0, horizon] exactly. *)
let test_advance_tiling () =
  let q = Test_models.mm1k ~lambda:3.0 ~mu:4.0 ~k:5 in
  let total = ref 0.0 in
  let last_end = ref 0.0 in
  let observer =
    {
      Sim.Observer.nop with
      on_advance =
        (fun t0 t1 _ ->
          Alcotest.(check (float 1e-12)) "contiguous" !last_end t0;
          Alcotest.(check bool) "positive" true (t1 > t0);
          last_end := t1;
          total := !total +. (t1 -. t0));
    }
  in
  let (_ : Sim.Executor.outcome) =
    run_simple q.Test_models.q_model ~horizon:7.0 ~seed:7 ~observer
  in
  Alcotest.(check (float 1e-9)) "tiles horizon" 7.0 !total

(* --- rewards --- *)

let test_reward_instant_right_continuous () =
  let model, count = clock_model ~period:1.0 in
  let spec =
    Sim.Runner.spec ~model ~horizon:3.5
      [
        Sim.Reward.instant ~name:"at1" ~at:1.0 (fun m ->
            float_of_int (San.Marking.get m count));
        Sim.Reward.instant ~name:"at0" ~at:0.0 (fun m ->
            float_of_int (San.Marking.get m count));
        Sim.Reward.instant ~name:"at_end" ~at:3.5 (fun m ->
            float_of_int (San.Marking.get m count));
      ]
  in
  let values = Sim.Runner.run_one spec (stream 8) in
  Alcotest.(check (float 0.0)) "value at 1.0 includes the t=1 tick" 1.0
    values.(0);
  Alcotest.(check (float 0.0)) "value at 0" 0.0 values.(1);
  Alcotest.(check (float 0.0)) "value at horizon" 3.0 values.(2)

let test_reward_time_average_and_integral () =
  (* count(t) = floor(t); integral over [0,3] of floor(t) dt = 0+1+2 = 3. *)
  let model, count = clock_model ~period:1.0 in
  let f m = float_of_int (San.Marking.get m count) in
  let spec =
    Sim.Runner.spec ~model ~horizon:3.0
      [
        Sim.Reward.time_average ~name:"avg" ~until:3.0 f;
        { Sim.Reward.name = "int";
          kind = Sim.Reward.Integral { f; from_ = 0.0; until = 3.0 } };
        { Sim.Reward.name = "int13";
          kind = Sim.Reward.Integral { f; from_ = 1.0; until = 3.0 } };
      ]
  in
  let values = Sim.Runner.run_one spec (stream 9) in
  Alcotest.(check (float 1e-9)) "time average" 1.0 values.(0);
  Alcotest.(check (float 1e-9)) "integral" 3.0 values.(1);
  Alcotest.(check (float 1e-9)) "window integral" 3.0 values.(2)

let test_reward_ever_and_first_passage () =
  let model, count = clock_model ~period:1.0 in
  let pred k m = San.Marking.get m count >= k in
  let spec =
    Sim.Runner.spec ~model ~horizon:10.0
      [
        Sim.Reward.ever ~name:"ever3by2.5" ~until:2.5 (pred 3);
        Sim.Reward.ever ~name:"ever2by2.5" ~until:2.5 (pred 2);
        Sim.Reward.first_passage ~name:"fp3" (pred 3);
        Sim.Reward.first_passage ~name:"fp99" (pred 99);
      ]
  in
  let values = Sim.Runner.run_one spec (stream 10) in
  Alcotest.(check (float 0.0)) "not reached in window" 0.0 values.(0);
  Alcotest.(check (float 0.0)) "reached in window" 1.0 values.(1);
  Alcotest.(check (float 1e-9)) "first passage at 3" 3.0 values.(2);
  Alcotest.(check bool) "undefined first passage" true (Float.is_nan values.(3))

let test_reward_impulse () =
  let model, _count = clock_model ~period:1.0 in
  let spec =
    Sim.Runner.spec ~model ~horizon:5.5
      [
        Sim.Reward.impulse ~name:"ticks in [2,4]" ~from_:2.0 ~until:4.0
          (fun a _ _ ->
            if a.San.Activity.name = "tick" then 1.0 else 0.0);
      ]
  in
  let values = Sim.Runner.run_one spec (stream 11) in
  Alcotest.(check (float 0.0)) "impulse count" 3.0 values.(0)

let test_reward_window_validation () =
  let model, _ = clock_model ~period:1.0 in
  Alcotest.(check bool) "window beyond horizon rejected" true
    (match
       Sim.Runner.spec ~model ~horizon:2.0
         [ Sim.Reward.ever ~name:"x" ~until:5.0 (fun _ -> false) ]
     with
    | (_ : Sim.Runner.spec) -> false
    | exception Invalid_argument _ -> true)

(* --- statistical validation against closed forms --- *)

let test_two_state_availability () =
  let lambda = 1.0 and mu = 4.0 in
  let ts = Test_models.two_state ~lambda ~mu in
  let avail m = San.Marking.get m ts.Test_models.up = 1 in
  let spec =
    Sim.Runner.spec ~model:ts.Test_models.ts_model ~horizon:2.0
      [
        Sim.Reward.instant ~name:"avail@0.5" ~at:0.5 (fun m ->
            if avail m then 1.0 else 0.0);
        Sim.Reward.probability_in_interval ~name:"avg avail [0,2]" ~until:2.0
          avail;
      ]
  in
  let results = Sim.Runner.run ~seed:42L ~reps:4000 spec in
  let expected_inst = Test_models.two_state_availability ~lambda ~mu 0.5 in
  let r0 = List.nth results 0 in
  if not (Stats.Ci.contains r0.Sim.Runner.ci expected_inst) then
    Alcotest.failf "availability at 0.5: CI %s misses %.5f"
      (Format.asprintf "%a" Stats.Ci.pp r0.Sim.Runner.ci)
      expected_inst;
  (* Interval average = (1/T) ∫ A(t) dt, closed form. *)
  let s = lambda +. mu in
  let t = 2.0 in
  let expected_avg =
    ((mu /. s *. t) +. (lambda /. (s *. s) *. (1.0 -. exp (-.s *. t)))) /. t
  in
  let r1 = List.nth results 1 in
  if not (Stats.Ci.contains r1.Sim.Runner.ci expected_avg) then
    Alcotest.failf "interval availability: CI %s misses %.5f"
      (Format.asprintf "%a" Stats.Ci.pp r1.Sim.Runner.ci)
      expected_avg

let test_tandem_unreliability () =
  let r1 = 2.0 and r2 = 5.0 in
  let td = Test_models.tandem ~r1 ~r2 in
  let spec =
    Sim.Runner.spec ~model:td.Test_models.td_model ~horizon:1.0
      ~stop:(fun m -> San.Marking.get m td.Test_models.stage = 2)
      [
        Sim.Reward.ever ~name:"absorbed by 1.0" ~until:1.0 (fun m ->
            San.Marking.get m td.Test_models.stage = 2);
      ]
  in
  let results = Sim.Runner.run ~seed:7L ~reps:4000 spec in
  let expected = Test_models.tandem_absorbed ~r1 ~r2 1.0 in
  let r = List.hd results in
  if not (Stats.Ci.contains r.Sim.Runner.ci expected) then
    Alcotest.failf "tandem absorption: CI %s misses %.5f"
      (Format.asprintf "%a" Stats.Ci.pp r.Sim.Runner.ci)
      expected

let test_mm1k_mean_queue () =
  let lambda = 2.0 and mu = 3.0 and k = 4 in
  let q = Test_models.mm1k ~lambda ~mu ~k in
  let pi = Test_models.mm1k_steady ~lambda ~mu ~k in
  let expected_mean =
    Array.to_list pi
    |> List.mapi (fun i p -> float_of_int i *. p)
    |> List.fold_left ( +. ) 0.0
  in
  (* Long horizon, discard a warmup prefix by averaging over [20, 120]. *)
  let spec =
    Sim.Runner.spec ~model:q.Test_models.q_model ~horizon:120.0
      [
        Sim.Reward.time_average ~name:"mean queue" ~from_:20.0 ~until:120.0
          (fun m -> float_of_int (San.Marking.get m q.Test_models.q_len));
      ]
  in
  let results = Sim.Runner.run ~seed:11L ~reps:400 spec in
  let r = List.hd results in
  if not (Stats.Ci.contains r.Sim.Runner.ci expected_mean) then
    Alcotest.failf "M/M/1/K mean queue: CI %s misses %.5f"
      (Format.asprintf "%a" Stats.Ci.pp r.Sim.Runner.ci)
      expected_mean

(* --- non-exponential timing end-to-end --- *)

let test_erlang_first_passage_distribution () =
  (* A single Erlang(3, 6) activity: its firing time must follow the
     Erlang cdf (checked by Kolmogorov-Smirnov over replications). *)
  let dist = Dist.Erlang { k = 3; rate = 6.0 } in
  let b = San.Model.Builder.create "erlang_once" in
  let done_ = San.Model.Builder.int_place b "done" in
  San.Model.Builder.timed_dist_ir b ~name:"go" ~policy:San.Activity.Keep
    ~dist:San.(Activity.DErlang (3, Effect.RConst 6.0))
    ~guard:San.Effect.(Cmp (Mark done_, Eq, Int 0))
    [
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Set (done_, San.Effect.Int 1) ]);
    ];
  let model = San.Model.Builder.build b in
  let spec =
    Sim.Runner.spec ~model ~horizon:100.0
      ~stop:(fun m -> San.Marking.get m done_ = 1)
      [
        Sim.Reward.first_passage ~name:"t" (fun m ->
            San.Marking.get m done_ = 1);
      ]
  in
  let n = 4000 in
  (* Derive substreams incrementally (one jump each); [substream root i]
     would cost i jumps. *)
  let base = ref (Prng.Stream.create ~seed:271L) in
  let samples =
    Array.init n (fun i ->
        if i > 0 then base := Prng.Stream.successor !base;
        (Sim.Runner.run_one spec (Prng.Stream.substream !base 0)).(0))
  in
  let stat = Stats.Ks.statistic ~cdf:(Dist.cdf dist) samples in
  let p = Stats.Ks.significance ~n stat in
  if p < 0.005 then
    Alcotest.failf "Erlang firing time rejected by KS: D=%.4f p=%.4g" stat p

(* --- trace observer --- *)

let test_trace_output () =
  let model, _count = clock_model ~period:1.0 in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let observer = Sim.Trace.observer ~model ppf in
  let (_ : Sim.Executor.outcome) =
    run_simple model ~horizon:2.5 ~seed:12 ~observer
  in
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec scan i =
      i + nl <= hl && (String.sub out i nl = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then
        Alcotest.failf "trace missing %S in:\n%s" needle out)
    [ "init"; "fire tick"; "end" ]

let test_trace_show_marking () =
  let model, _count = clock_model ~period:1.0 in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let observer = Sim.Trace.observer ~show_marking:true ~model ppf in
  let (_ : Sim.Executor.outcome) =
    run_simple model ~horizon:2.5 ~seed:12 ~observer
  in
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let lines = String.split_on_char '\n' out in
  (* After the first tick the marking dump must show count = 1, indented. *)
  Alcotest.(check bool) "marking dumped" true
    (List.exists (fun l -> String.trim l = "count = 1") lines);
  Alcotest.(check bool) "dump lines indented" true
    (List.for_all
       (fun l ->
         String.length l = 0
         || (not (String.length l >= 5 && String.sub l 0 5 = "count"))
         || String.length l > 0 && l.[0] = ' ')
       lines)

(* --- trajectory recording --- *)

let test_trajectory_records_clock () =
  let model, _count = clock_model ~period:1.0 in
  let sink = Sim.Trajectory.sink ~model () in
  let (_ : Sim.Executor.outcome) =
    run_simple model ~horizon:5.5 ~seed:1
      ~observer:(Sim.Trajectory.observer sink)
  in
  Sim.Trajectory.offer sink ~rep:0;
  (match Sim.Trajectory.retained sink with
  | [ t ] ->
      Alcotest.(check int) "rep" 0 t.Sim.Trajectory.rep;
      Alcotest.(check bool) "no predicate, never matched" false
        t.Sim.Trajectory.matched;
      Alcotest.(check int) "events" 5 t.Sim.Trajectory.events;
      Alcotest.(check (float 1e-9)) "horizon" 5.5 t.Sim.Trajectory.horizon;
      Alcotest.(check int) "count starts at zero: empty init" 0
        (List.length t.Sim.Trajectory.init);
      Alcotest.(check int) "five steps" 5 (List.length t.Sim.Trajectory.steps);
      List.iteri
        (fun i (s : Sim.Trajectory.step) ->
          Alcotest.(check string) "activity" "tick" s.activity;
          Alcotest.(check (float 1e-9)) "firing time" (float_of_int (i + 1))
            s.time;
          match s.changes with
          | [ (c : Sim.Trajectory.change) ] ->
              Alcotest.(check string) "changed place" "count" c.place;
              Alcotest.(check (float 0.0)) "post-firing value"
                (float_of_int (i + 1))
                c.value
          | cs -> Alcotest.failf "step %d: %d changes" i (List.length cs))
        t.Sim.Trajectory.steps
  | ts -> Alcotest.failf "retained %d trajectories" (List.length ts));
  match Sim.Trajectory.occupancy sink with
  | [ (s : Sim.Trajectory.place_stats) ] ->
      Alcotest.(check string) "stats place" "count" s.place;
      (* count(t) = floor(t); ∫ over [0,5.5] = 0+1+2+3+4+2.5 = 12.5 *)
      Alcotest.(check (float 1e-9)) "time-weighted mean" (12.5 /. 5.5)
        s.mean_tokens;
      Alcotest.(check (float 0.0)) "max" 5.0 s.max_tokens;
      Alcotest.(check int) "hit in the one run" 1 s.hit_runs;
      Alcotest.(check (float 1e-9)) "first non-zero at t=1" 1.0
        s.mean_first_hit
  | ss -> Alcotest.failf "%d occupancy rows" (List.length ss)

(* Two-state model with a "was ever down" predicate: a mixed population of
   matching and non-matching replications. *)
let trajectory_run ~domains ~reps =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let spec =
    Sim.Runner.spec ~model:ts.Test_models.ts_model ~horizon:5.0
      [
        Sim.Reward.probability_in_interval ~name:"a" ~until:5.0 (fun m ->
            San.Marking.get m ts.Test_models.up = 1);
      ]
  in
  let sink =
    Sim.Trajectory.sink ~k:5
      ~predicate:(fun m -> San.Marking.get m ts.Test_models.up = 0)
      ~model:ts.Test_models.ts_model ()
  in
  let (_ : Sim.Runner.result list) =
    Sim.Runner.run ~domains ~seed:5L ~reps ~record:sink spec
  in
  sink

let trajectory_fingerprint sink =
  ( Sim.Trajectory.runs sink,
    Sim.Trajectory.matched_runs sink,
    List.map
      (fun t -> Report.Json.to_string (Sim.Trajectory.to_json t))
      (Sim.Trajectory.retained sink),
    Report.Json.to_string
      (Sim.Trajectory.occupancy_to_json (Sim.Trajectory.occupancy sink)) )

(* The bit-identical [--cores 1] vs [--cores N] guarantee: retained
   trajectories AND occupancy statistics (float sums included) must agree
   byte-for-byte. 130 reps crosses the 64-rep segment boundary. *)
let test_trajectory_cross_core_identical () =
  let r1, m1, t1, o1 = trajectory_fingerprint (trajectory_run ~domains:1 ~reps:130) in
  let r4, m4, t4, o4 = trajectory_fingerprint (trajectory_run ~domains:4 ~reps:130) in
  Alcotest.(check int) "runs" r1 r4;
  Alcotest.(check int) "matched runs" m1 m4;
  Alcotest.(check (list string)) "retained trajectories byte-identical" t1 t4;
  Alcotest.(check string) "occupancy byte-identical" o1 o4

let test_trajectory_retention_bounds () =
  let sink = trajectory_run ~domains:1 ~reps:130 in
  Alcotest.(check int) "all runs offered" 130 (Sim.Trajectory.runs sink);
  let matching = Sim.Trajectory.matching sink in
  let non_matching = Sim.Trajectory.non_matching sink in
  let matched = Sim.Trajectory.matched_runs sink in
  Alcotest.(check bool) "some runs matched" true (matched > 5);
  Alcotest.(check int) "matching sample capped at k" 5 (List.length matching);
  Alcotest.(check int) "every non-matching run retained under k"
    (Int.min 5 (130 - matched))
    (List.length non_matching);
  List.iter
    (fun (t : Sim.Trajectory.t) ->
      Alcotest.(check bool) "matching flagged" true t.matched)
    matching;
  List.iter
    (fun (t : Sim.Trajectory.t) ->
      Alcotest.(check bool) "non-matching flagged" false t.matched)
    non_matching;
  let reps = List.map (fun (t : Sim.Trajectory.t) -> t.rep) (Sim.Trajectory.retained sink) in
  Alcotest.(check bool) "retained sorted by rep" true
    (List.sort compare reps = reps)

let test_trajectory_json_roundtrip () =
  let sink = trajectory_run ~domains:1 ~reps:130 in
  List.iter
    (fun t ->
      let s = Report.Json.to_string (Sim.Trajectory.to_json t) in
      match Report.Json.of_string s with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok j -> (
          match Sim.Trajectory.of_json j with
          | Error e -> Alcotest.failf "of_json failed: %s" e
          | Ok t2 ->
              Alcotest.(check string) "trajectory round-trips" s
                (Report.Json.to_string (Sim.Trajectory.to_json t2))))
    (Sim.Trajectory.retained sink);
  let s =
    Report.Json.to_string
      (Sim.Trajectory.occupancy_to_json (Sim.Trajectory.occupancy sink))
  in
  match Report.Json.of_string s with
  | Error e -> Alcotest.failf "occupancy reparse failed: %s" e
  | Ok j -> (
      match Sim.Trajectory.occupancy_of_json j with
      | Error e -> Alcotest.failf "occupancy of_json failed: %s" e
      | Ok stats ->
          Alcotest.(check string) "occupancy round-trips" s
            (Report.Json.to_string (Sim.Trajectory.occupancy_to_json stats)))

let test_trajectory_validation () =
  let model, _ = clock_model ~period:1.0 in
  List.iter
    (fun (label, f) ->
      Alcotest.(check bool) label true
        (match f () with
        | (_ : Sim.Trajectory.sink) -> false
        | exception Invalid_argument _ -> true))
    [
      ("negative k rejected", fun () -> Sim.Trajectory.sink ~k:(-1) ~model ());
      ( "negative max_steps rejected",
        fun () -> Sim.Trajectory.sink ~max_steps:(-1) ~model () );
    ]

(* --- metrics --- *)

let test_metrics_counters_match_outcome () =
  let model, _count = clock_model ~period:1.0 in
  let metrics = Sim.Metrics.create ~model in
  let cfg = Sim.Executor.config ~horizon:5.5 () in
  let outcome =
    Sim.Executor.run ~metrics ~model ~config:cfg ~stream:(stream 1)
      ~observer:Sim.Observer.nop ()
  in
  Alcotest.(check int) "events counted" outcome.Sim.Executor.events
    metrics.Sim.Metrics.events;
  Alcotest.(check int) "one run" 1 metrics.Sim.Metrics.runs;
  Alcotest.(check int) "no setup firings" 0 metrics.Sim.Metrics.setup_events;
  (* The clock has a single activity; all firings are its. *)
  Alcotest.(check int) "per-activity firings sum to events"
    outcome.Sim.Executor.events
    (Array.fold_left ( + ) 0 metrics.Sim.Metrics.firings);
  (* 5 ticks plus the past-horizon completion popped and discarded. *)
  Alcotest.(check int) "heap pops" 6 metrics.Sim.Metrics.pops;
  Alcotest.(check int) "no stale pops" 0 metrics.Sim.Metrics.stale_pops;
  Alcotest.(check int) "singleton heap" 1 metrics.Sim.Metrics.max_depth

let test_metrics_cancellations_and_never_fired () =
  (* The abort model: "victim" is scheduled, then disabled at t=1 by
     "blocker" and never fires. *)
  let b = San.Model.Builder.create "abort" in
  let blocked = San.Model.Builder.int_place b "blocked" in
  let fired = San.Model.Builder.int_place b "fired" in
  San.Model.Builder.timed_dist_ir b ~name:"blocker"
    ~dist:San.(Activity.DDet (Effect.RConst 1.0))
    ~guard:San.Effect.(Cmp (Mark blocked, Eq, Int 0))
    [
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Set (blocked, San.Effect.Int 1) ]);
    ];
  San.Model.Builder.timed_dist_ir b ~name:"victim"
    ~dist:San.(Activity.DDet (Effect.RConst 2.0))
    ~guard:San.Effect.(Cmp (Mark blocked, Eq, Int 0))
    [
      San.Activity.make_case
        (San.Effect.Ops [ San.Effect.Inc (fired, San.Effect.Int 1) ]);
    ];
  let model = San.Model.Builder.build b in
  let metrics = Sim.Metrics.create ~model in
  let cfg = Sim.Executor.config ~horizon:10.0 () in
  let (_ : Sim.Executor.outcome) =
    Sim.Executor.run ~metrics ~model ~config:cfg ~stream:(stream 6)
      ~observer:Sim.Observer.nop ()
  in
  let victim = (San.Model.find_activity model "victim").San.Activity.id in
  let blocker = (San.Model.find_activity model "blocker").San.Activity.id in
  Alcotest.(check int) "victim canceled once" 1
    metrics.Sim.Metrics.cancellations.(victim);
  Alcotest.(check int) "victim never fired" 0
    metrics.Sim.Metrics.firings.(victim);
  Alcotest.(check int) "blocker fired once" 1
    metrics.Sim.Metrics.firings.(blocker);
  Alcotest.(check (list string)) "never_fired lists the victim" [ "victim" ]
    (Sim.Metrics.never_fired metrics);
  (* Canceling removes the victim's completion from the heap: no pop is
     ever stale. *)
  Alcotest.(check int) "no stale pop" 0 metrics.Sim.Metrics.stale_pops

let runner_metrics_totals ~domains =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let spec =
    Sim.Runner.spec ~model:ts.Test_models.ts_model ~horizon:5.0
      [
        Sim.Reward.probability_in_interval ~name:"a" ~until:5.0 (fun m ->
            San.Marking.get m ts.Test_models.up = 1);
      ]
  in
  let metrics = Sim.Metrics.create ~model:ts.Test_models.ts_model in
  let (_ : Sim.Runner.result list) =
    Sim.Runner.run ~domains ~metrics ~seed:5L ~reps:101 spec
  in
  metrics

let test_metrics_domain_merge () =
  let seq = runner_metrics_totals ~domains:1 in
  let par = runner_metrics_totals ~domains:4 in
  (* Replication [i] uses substream [i] regardless of the domain split, so
     the merged counters must agree exactly. *)
  Alcotest.(check int) "events equal" seq.Sim.Metrics.events
    par.Sim.Metrics.events;
  Alcotest.(check int) "runs equal" seq.Sim.Metrics.runs par.Sim.Metrics.runs;
  Alcotest.(check (array int)) "per-activity firings equal"
    seq.Sim.Metrics.firings par.Sim.Metrics.firings;
  Alcotest.(check (array int)) "per-activity cancellations equal"
    seq.Sim.Metrics.cancellations par.Sim.Metrics.cancellations;
  Alcotest.(check int) "heap pops equal" seq.Sim.Metrics.pops
    par.Sim.Metrics.pops;
  Alcotest.(check bool) "wall clock recorded" true
    (par.Sim.Metrics.wall_seconds > 0.0)

let test_metrics_merge_and_reset () =
  let a = runner_metrics_totals ~domains:1 in
  let b = runner_metrics_totals ~domains:1 in
  let events_one = a.Sim.Metrics.events in
  Sim.Metrics.merge ~into:a b;
  Alcotest.(check int) "merge doubles events" (2 * events_one)
    a.Sim.Metrics.events;
  Sim.Metrics.reset a;
  Alcotest.(check int) "reset zeroes events" 0 a.Sim.Metrics.events;
  Alcotest.(check int) "reset zeroes firings" 0
    (Array.fold_left ( + ) 0 a.Sim.Metrics.firings)

(* --- progress reporting --- *)

let progress_spec () =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  Sim.Runner.spec ~model:ts.Test_models.ts_model ~horizon:5.0
    [
      Sim.Reward.probability_in_interval ~name:"avail" ~until:5.0 (fun m ->
          San.Marking.get m ts.Test_models.up = 1);
    ]

let test_run_progress () =
  let spec = progress_spec () in
  let seen = ref [] in
  let baseline = Sim.Runner.run ~seed:5L ~reps:101 spec in
  let results =
    Sim.Runner.run ~seed:5L ~reps:101
      ~progress:(fun p -> seen := p :: !seen)
      spec
  in
  let seen = List.rev !seen in
  Alcotest.(check bool) "several reports" true (List.length seen > 1);
  let completions = List.map (fun p -> p.Sim.Runner.completed) seen in
  Alcotest.(check bool) "monotone" true
    (List.sort compare completions = completions);
  let last = List.nth seen (List.length seen - 1) in
  Alcotest.(check int) "final report complete" 101 last.Sim.Runner.completed;
  Alcotest.(check int) "target is reps" 101 last.Sim.Runner.target;
  Alcotest.(check int) "one ci per reward" 1
    (List.length last.Sim.Runner.cis);
  (* Chunked execution uses the same replication substreams; means agree
     to floating-point merge order. *)
  Alcotest.(check bool) "estimate unchanged by chunking" true
    (Float.abs
       ((List.hd baseline).Sim.Runner.ci.Stats.Ci.mean
       -. (List.hd results).Sim.Runner.ci.Stats.Ci.mean)
    < 1e-12)

let test_run_until_progress () =
  let spec = progress_spec () in
  let seen = ref [] in
  let r =
    List.hd
      (Sim.Runner.run_until ~batch:200 ~rel_precision:0.02 ~seed:9L
         ~progress:(fun p -> seen := p :: !seen)
         spec)
  in
  let seen = List.rev !seen in
  Alcotest.(check bool) "one report per batch" true
    (List.length seen = r.Sim.Runner.n_runs / 200);
  let last = List.nth seen (List.length seen - 1) in
  Alcotest.(check int) "last report covers the run" r.Sim.Runner.n_runs
    last.Sim.Runner.completed;
  Alcotest.(check bool) "stopping criterion visible" true
    (last.Sim.Runner.worst_rel_hw <= 0.02);
  Alcotest.(check bool) "eta present" true
    (List.for_all (fun p -> p.Sim.Runner.eta <> None) seen)

(* --- batch-means steady state --- *)

let test_steady_mm1k_batch_means () =
  let lambda = 2.0 and mu = 3.0 and k = 5 in
  let q = Test_models.mm1k ~lambda ~mu ~k in
  let pi = Test_models.mm1k_steady ~lambda ~mu ~k in
  let expected =
    Array.to_list pi
    |> List.mapi (fun i p -> float_of_int i *. p)
    |> List.fold_left ( +. ) 0.0
  in
  let result =
    Sim.Steady.estimate ~model:q.Test_models.q_model
      ~f:(fun m -> float_of_int (San.Marking.get m q.Test_models.q_len))
      ~warmup:50.0 ~batch_length:100.0 ~batches:30
      ~stream:(stream 301) ()
  in
  Alcotest.(check int) "30 batch means" 30
    (Array.length result.Sim.Steady.batch_means);
  if not (Stats.Ci.contains result.Sim.Steady.ci expected) then
    Alcotest.failf "batch means CI %s misses exact %.5f"
      (Format.asprintf "%a" Stats.Ci.pp result.Sim.Steady.ci)
      expected;
  Alcotest.(check bool) "warmup mean recorded" true
    (not (Float.is_nan result.Sim.Steady.warmup_mean))

let test_steady_validation () =
  let q = Test_models.mm1k ~lambda:1.0 ~mu:2.0 ~k:3 in
  let run ~warmup ~batch_length ~batches =
    match
      Sim.Steady.estimate ~model:q.Test_models.q_model
        ~f:(fun _ -> 1.0)
        ~warmup ~batch_length ~batches ~stream:(stream 1) ()
    with
    | (_ : Sim.Steady.result) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "batches >= 2" true
    (run ~warmup:1.0 ~batch_length:1.0 ~batches:1);
  Alcotest.(check bool) "positive batch length" true
    (run ~warmup:1.0 ~batch_length:0.0 ~batches:4);
  Alcotest.(check bool) "non-negative warmup" true
    (run ~warmup:(-1.0) ~batch_length:1.0 ~batches:4)

let test_steady_constant_reward () =
  (* A constant-1 reward must produce batch means of exactly 1. *)
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let result =
    Sim.Steady.estimate ~model:ts.Test_models.ts_model
      ~f:(fun _ -> 1.0)
      ~warmup:1.0 ~batch_length:2.0 ~batches:5 ~stream:(stream 2) ()
  in
  Array.iter
    (fun m -> Alcotest.(check (float 1e-9)) "batch mean 1" 1.0 m)
    result.Sim.Steady.batch_means

(* --- runner mechanics --- *)

let test_runner_reproducible () =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let spec =
    Sim.Runner.spec ~model:ts.Test_models.ts_model ~horizon:5.0
      [
        Sim.Reward.probability_in_interval ~name:"a" ~until:5.0 (fun m ->
            San.Marking.get m ts.Test_models.up = 1);
      ]
  in
  let run () =
    (List.hd (Sim.Runner.run ~seed:123L ~reps:50 spec)).Sim.Runner.ci.Stats.Ci.mean
  in
  Alcotest.(check (float 0.0)) "same seed, same estimate" (run ()) (run ())

let test_runner_parallel_matches_counts () =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let spec =
    Sim.Runner.spec ~model:ts.Test_models.ts_model ~horizon:5.0
      [
        Sim.Reward.probability_in_interval ~name:"a" ~until:5.0 (fun m ->
            San.Marking.get m ts.Test_models.up = 1);
      ]
  in
  let seq = List.hd (Sim.Runner.run ~domains:1 ~seed:5L ~reps:101 spec) in
  let par = List.hd (Sim.Runner.run ~domains:4 ~seed:5L ~reps:101 spec) in
  Alcotest.(check int) "counts match" seq.Sim.Runner.n_runs par.Sim.Runner.n_runs;
  (* Same replication substreams are used either way; means agree to
     floating-point merge order. *)
  Alcotest.(check bool) "means agree" true
    (Float.abs (seq.Sim.Runner.ci.Stats.Ci.mean -. par.Sim.Runner.ci.Stats.Ci.mean)
    < 1e-12)

let test_run_until_precision () =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let spec =
    Sim.Runner.spec ~model:ts.Test_models.ts_model ~horizon:5.0
      [
        Sim.Reward.probability_in_interval ~name:"avail" ~until:5.0 (fun m ->
            San.Marking.get m ts.Test_models.up = 1);
      ]
  in
  let r =
    List.hd
      (Sim.Runner.run_until ~batch:200 ~rel_precision:0.02 ~seed:9L spec)
  in
  Alcotest.(check bool) "precision reached" true
    (Stats.Ci.relative_half_width r.Sim.Runner.ci <= 0.02);
  Alcotest.(check int) "whole batches" 0 (r.Sim.Runner.n_runs mod 200);
  Alcotest.(check bool) "took more than one batch" true
    (r.Sim.Runner.n_runs >= 200)

let test_run_until_caps_at_max () =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let spec =
    Sim.Runner.spec ~model:ts.Test_models.ts_model ~horizon:5.0
      [
        Sim.Reward.probability_in_interval ~name:"avail" ~until:5.0 (fun m ->
            San.Marking.get m ts.Test_models.up = 1);
      ]
  in
  let r =
    List.hd
      (Sim.Runner.run_until ~batch:100 ~max_reps:300 ~rel_precision:1e-6
         ~seed:9L spec)
  in
  Alcotest.(check int) "capped" 300 r.Sim.Runner.n_runs

let test_run_until_deterministic () =
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let spec =
    Sim.Runner.spec ~model:ts.Test_models.ts_model ~horizon:5.0
      [
        Sim.Reward.probability_in_interval ~name:"avail" ~until:5.0 (fun m ->
            San.Marking.get m ts.Test_models.up = 1);
      ]
  in
  let go () =
    let r =
      List.hd
        (Sim.Runner.run_until ~batch:150 ~rel_precision:0.05 ~seed:31L spec)
    in
    (r.Sim.Runner.n_runs, r.Sim.Runner.ci.Stats.Ci.mean)
  in
  Alcotest.(check (pair int (float 0.0))) "same stopping point" (go ()) (go ())

let test_runner_nan_handling () =
  (* First passage to an unreachable predicate: undefined in every rep. *)
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let spec =
    Sim.Runner.spec ~model:ts.Test_models.ts_model ~horizon:1.0
      [ Sim.Reward.first_passage ~name:"never" (fun _ -> false) ]
  in
  let r = List.hd (Sim.Runner.run ~seed:1L ~reps:20 spec) in
  Alcotest.(check int) "none defined" 0 r.Sim.Runner.n_defined;
  Alcotest.(check int) "all ran" 20 r.Sim.Runner.n_runs

(* --- checkpointing and the splitting engine --- *)

let test_checkpoint_roundtrip () =
  (* A run halted at a level and resumed with the same stream object must
     be bit-identical to the uninterrupted run on that stream. *)
  let q = Test_models.mm1k ~lambda:1.0 ~mu:1.2 ~k:8 in
  let model = q.Test_models.q_model and len = q.Test_models.q_len in
  let cfg = Sim.Executor.config ~horizon:50.0 () in
  let full =
    Sim.Executor.run ~model ~config:cfg ~stream:(stream 99)
      ~observer:Sim.Observer.nop ()
  in
  let s2 = stream 99 in
  let importance m = San.Marking.get m len in
  match
    Sim.Executor.run_to_level ~model ~config:cfg ~stream:s2
      ~observer:Sim.Observer.nop ~importance ~threshold:3 ()
  with
  | Sim.Executor.Finished _ -> Alcotest.fail "expected a crossing"
  | Sim.Executor.Crossed { checkpoint; events } ->
      Alcotest.(check int) "captured at the level" 3
        (importance (Sim.Executor.checkpoint_marking checkpoint));
      Alcotest.(check bool) "some events before the crossing" true (events > 0);
      let resumed =
        Sim.Executor.resume ~model ~config:cfg ~stream:s2
          ~observer:Sim.Observer.nop checkpoint
      in
      Alcotest.(check int) "final marking identical"
        (San.Marking.get full.Sim.Executor.final len)
        (San.Marking.get resumed.Sim.Executor.final len);
      Alcotest.(check int) "events partition the full run"
        full.Sim.Executor.events
        (events + resumed.Sim.Executor.events);
      Alcotest.(check (float 0.0)) "same last-event time"
        full.Sim.Executor.end_time resumed.Sim.Executor.end_time

let test_checkpoint_clones_independent () =
  (* A checkpoint can be resumed many times: same stream seed gives the
     same continuation, different seeds explore different futures. *)
  let q = Test_models.mm1k ~lambda:1.0 ~mu:1.2 ~k:8 in
  let model = q.Test_models.q_model and len = q.Test_models.q_len in
  let cfg = Sim.Executor.config ~horizon:50.0 () in
  match
    Sim.Executor.run_to_level ~model ~config:cfg ~stream:(stream 99)
      ~observer:Sim.Observer.nop
      ~importance:(fun m -> San.Marking.get m len)
      ~threshold:3 ()
  with
  | Sim.Executor.Finished _ -> Alcotest.fail "expected a crossing"
  | Sim.Executor.Crossed { checkpoint; _ } ->
      let resume seed =
        let o =
          Sim.Executor.resume ~model ~config:cfg ~stream:(stream seed)
            ~observer:Sim.Observer.nop checkpoint
        in
        (San.Marking.get o.Sim.Executor.final len, o.Sim.Executor.events)
      in
      Alcotest.(check (pair int int))
        "same seed, same continuation" (resume 7) (resume 7);
      let different = List.init 5 (fun i -> resume (100 + i)) in
      Alcotest.(check bool) "seeds diverge" true
        (List.exists (fun r -> r <> List.hd different) different)

(* --- reusable executor workspaces --- *)

(* Everything one run reports: each event (time, activity, case), the
   outcome's counters, the final marking and the run's metrics. *)
type run_record = {
  fired : (float * int * int) list;
  events : int;
  end_time : float;
  final_ints : int array;
  final_floats : float array;
  metrics : Sim.Metrics.t;
}

let recording_observer () =
  let fired = ref [] in
  ( { Sim.Observer.nop with
      on_fire = (fun t a c _ -> fired := (t, a.San.Activity.id, c) :: !fired)
    },
    fun () -> List.rev !fired )

let record_of ~fired ~metrics (o : Sim.Executor.outcome) =
  {
    fired;
    events = o.Sim.Executor.events;
    end_time = o.Sim.Executor.end_time;
    final_ints = San.Marking.int_snapshot o.Sim.Executor.final;
    final_floats = San.Marking.float_snapshot o.Sim.Executor.final;
    metrics;
  }

let ws_config = Sim.Executor.config ~horizon:20.0 ()

let recorded_run ?workspace model seed =
  let observer, fired = recording_observer () in
  let metrics = Sim.Metrics.create ~model in
  let o =
    Sim.Executor.run ?workspace ~metrics ~model ~config:ws_config
      ~stream:(stream seed) ~observer ()
  in
  record_of ~fired:(fired ()) ~metrics o

(* A resume from [checkpoint] as splitting runs one: [run_to_level] from
   the checkpoint, to a level no marking reaches. *)
let recorded_resume ?workspace model seed checkpoint =
  let observer, fired = recording_observer () in
  let metrics = Sim.Metrics.create ~model in
  match
    Sim.Executor.run_to_level ?workspace ~metrics ~from_:checkpoint ~model
      ~config:ws_config ~stream:(stream seed) ~observer
      ~importance:(fun _ -> 0)
      ~threshold:1 ()
  with
  | Sim.Executor.Finished o -> record_of ~fired:(fired ()) ~metrics o
  | Sim.Executor.Crossed _ -> Alcotest.fail "crossed an unreachable level"

let check_record label (expected : run_record) (got : run_record) =
  Alcotest.(check (list (triple (float 0.0) int int)))
    (label ^ ": events") expected.fired got.fired;
  Alcotest.(check (pair int (float 0.0)))
    (label ^ ": outcome")
    (expected.events, expected.end_time)
    (got.events, got.end_time);
  Alcotest.(check (array int))
    (label ^ ": final int marking") expected.final_ints got.final_ints;
  Alcotest.(check (array (float 0.0)))
    (label ^ ": final float marking") expected.final_floats got.final_floats;
  Alcotest.(check bool)
    (label ^ ": metrics") true
    (expected.metrics = got.metrics)

(* A small ITUA model: instantaneous chains, both reactivation policies
   and marking-dependent rates, so a run leaves every part of a
   workspace dirty. *)
let ws_model () =
  (Itua.Model.build
     {
       Itua.Params.default with
       Itua.Params.num_domains = 3;
       hosts_per_domain = 2;
       num_apps = 2;
     })
    .Itua.Model.model

(* Number of int places away from their initial value: grows as the
   attacks and failures spread. *)
let ws_importance model =
  let init = San.Marking.int_snapshot (San.Model.initial_marking model) in
  fun m ->
    let cur = San.Marking.int_snapshot m in
    let d = ref 0 in
    Array.iteri (fun i v -> if v <> init.(i) then incr d) cur;
    !d

let test_workspace_reuse_across_seeds () =
  let model = ws_model () in
  let workspace = Sim.Executor.workspace model in
  List.iter
    (fun seed ->
      check_record
        (Printf.sprintf "seed %d" seed)
        (recorded_run model seed)
        (recorded_run ~workspace model seed))
    [ 1; 2; 3; 1; 4; 5; 2 ]

(* Every tick puts four tokens in [buf]; two competing instantaneous
   activities drain it, one token per step, so each tick sets off a
   four-step chain with random choices. *)
let burst_model () =
  let b = San.Model.Builder.create "burst" in
  let buf = San.Model.Builder.int_place b "buf" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"tick"
    ~rate:(San.Effect.RConst 1.0) ~guard:(San.Effect.Const true)
    San.Effect.(Ops [ Inc (buf, Int 4) ]);
  List.iter
    (fun name ->
      let out = San.Model.Builder.int_place b name in
      San.Model.Builder.instantaneous_ir b ~name:("drain_" ^ name)
        ~guard:San.Effect.(Cmp (Mark buf, Gt, Int 0))
        San.Effect.(Ops [ Inc (buf, Int (-1)); Inc (out, Int 1) ]))
    [ "a"; "b" ];
  San.Model.Builder.build b

(* A run that raises [Stabilization_diverged] mid-chain leaves a dirty
   marking, heap and enabled flags behind: on the ITUA model it raises
   in the t = 0 setup chain, on the burst model in the first tick's. *)
let test_workspace_reuse_after_raise () =
  List.iter
    (fun (label, model, max_inst_chain) ->
      let workspace = Sim.Executor.workspace model in
      let tight = Sim.Executor.config ~max_inst_chain ~horizon:5.0 () in
      List.iter
        (fun seed ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, seed %d: the chain bound raises" label seed)
            true
            (match
               Sim.Executor.run ~workspace ~model ~config:tight
                 ~stream:(stream seed) ~observer:Sim.Observer.nop ()
             with
            | (_ : Sim.Executor.outcome) -> false
            | exception Sim.Executor.Stabilization_diverged _ -> true);
          for after = 10 * seed to (10 * seed) + 4 do
            check_record
              (Printf.sprintf "%s, after the raise on seed %d, seed %d" label
                 seed after)
              (recorded_run model after)
              (recorded_run ~workspace model after)
          done)
        [ 1; 2; 3 ])
    [ ("itua", ws_model (), 1); ("burst", burst_model (), 2) ]

(* A crossed run and one clone resumed from its checkpoint. *)
let crossing model seed =
  match
    Sim.Executor.run_to_level ~model ~config:ws_config ~stream:(stream seed)
      ~observer:Sim.Observer.nop ~importance:(ws_importance model)
      ~threshold:6 ()
  with
  | Sim.Executor.Finished _ -> Alcotest.fail "expected a crossing"
  | Sim.Executor.Crossed { checkpoint; _ } -> checkpoint

let test_workspace_reuse_after_crossing () =
  let model = ws_model () in
  let workspace = Sim.Executor.workspace model in
  (match
     Sim.Executor.run_to_level ~workspace ~model ~config:ws_config
       ~stream:(stream 21) ~observer:Sim.Observer.nop
       ~importance:(ws_importance model) ~threshold:6 ()
   with
  | Sim.Executor.Finished _ -> Alcotest.fail "expected a crossing"
  | Sim.Executor.Crossed _ -> ());
  check_record "run after a crossing" (recorded_run model 22)
    (recorded_run ~workspace model 22)

let test_workspace_resume_dirty () =
  let model = ws_model () in
  let checkpoint = crossing model 31 in
  let workspace = Sim.Executor.workspace model in
  ignore (recorded_run ~workspace model 32 : run_record);
  check_record "resume into a dirty workspace"
    (recorded_resume model 33 checkpoint)
    (recorded_resume ~workspace model 33 checkpoint);
  check_record "run after a resume" (recorded_run model 34)
    (recorded_run ~workspace model 34);
  check_record "resume again"
    (recorded_resume model 35 checkpoint)
    (recorded_resume ~workspace model 35 checkpoint)

(* Past 256 words an array goes straight to the major heap, and the
   per-activity arrays of a 421-activity model are all that long: a
   replication in a reused workspace must allocate none of them. Only
   native code has the allocation profile the bound assumes. *)
let test_workspace_no_major_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let model =
      (Itua.Model.build
         {
           Itua.Params.default with
           Itua.Params.num_domains = 4;
           hosts_per_domain = 3;
           num_apps = 8;
         })
        .Itua.Model.model
    in
    Alcotest.(check int) "activities" 421
      (Array.length (San.Model.activities model));
    let workspace = Sim.Executor.workspace model in
    let cfg = Sim.Executor.config ~horizon:5.0 () in
    let direct_major () =
      let _, promoted, major = Gc.counters () in
      major -. promoted
    in
    let runs = 200 in
    let before = direct_major () in
    ignore
      (Prng.Stream.walk (stream 20030622) runs (fun _ stream ->
           ignore
             (Sim.Executor.run ~workspace ~model ~config:cfg ~stream
                ~observer:Sim.Observer.nop ()
               : Sim.Executor.outcome))
        : Prng.Stream.t);
    let per_run = (direct_major () -. before) /. float_of_int runs in
    if per_run >= 64.0 then
      Alcotest.failf "%.0f words per run allocated directly in the major heap"
        per_run
  end

let test_workspace_other_model_rejected () =
  let queue lambda =
    (Test_models.mm1k ~lambda ~mu:1.2 ~k:8).Test_models.q_model
  in
  let model = queue 1.0 and twin = queue 2.0 in
  let raises label f =
    Alcotest.(check bool) label true
      (match f () with
      | (_ : Sim.Executor.outcome) -> false
      | exception Invalid_argument _ -> true)
  in
  let cfg = Sim.Executor.config ~horizon:5.0 () in
  let run workspace () =
    Sim.Executor.run ~workspace ~model ~config:cfg ~stream:(stream 1)
      ~observer:Sim.Observer.nop ()
  in
  raises "another model's workspace"
    (run (Sim.Executor.workspace (Test_models.gong ()).Test_models.g_model));
  raises "a same-shape model's workspace" (run (Sim.Executor.workspace twin));
  let checkpoint =
    match
      Sim.Executor.run_to_level ~model ~config:cfg ~stream:(stream 99)
        ~observer:Sim.Observer.nop
        ~importance:(fun _ -> 1)
        ~threshold:1 ()
    with
    | Sim.Executor.Crossed { checkpoint; _ } -> checkpoint
    | Sim.Executor.Finished _ -> Alcotest.fail "expected a crossing"
  in
  raises "resume in a same-shape model's workspace" (fun () ->
      match
        Sim.Executor.run_to_level ~workspace:(Sim.Executor.workspace twin)
          ~from_:checkpoint ~model ~config:cfg ~stream:(stream 1)
          ~observer:Sim.Observer.nop
          ~importance:(fun _ -> 0)
          ~threshold:1 ()
      with
      | Sim.Executor.Finished o -> o
      | Sim.Executor.Crossed _ -> Alcotest.fail "crossed an unreachable level");
  (* The model's own workspace still works after the rejections. *)
  ignore (run (Sim.Executor.workspace model) () : Sim.Executor.outcome)

(* --- the model's shared run tables --- *)

(* [San.Model.Builder.build] computes the instantaneous ids and the
   place -> dependents table once; every run reads them. They must
   agree with a derivation from scratch, both from the activities'
   completed reads and through [San.Model.dependents], and every
   activity's reads must hold its IR reads. *)
let test_run_tables_match_dependents () =
  let goldens = Test_models.golden_models () in
  Alcotest.(check bool) "golden models found" true (List.length goldens >= 4);
  let itua (label, policy) =
    ( "itua 10x3x4x7 " ^ label,
      (Itua.Model.build { Itua.Params.default with Itua.Params.policy })
        .Itua.Model.model )
  in
  (* A closure timing next to an IR activity, over int and float
     places. *)
  let closure =
    let b = San.Model.Builder.create "closure" in
    let up = San.Model.Builder.int_place b ~init:1 "up" in
    let load = San.Model.Builder.float_place b ~init:0.5 "load" in
    let (_ : San.Place.t) = San.Model.Builder.int_place b "idle" in
    San.Model.Builder.timed_exp_ir b ~name:"fail"
      ~rate:(fun m -> 1.0 +. San.Marking.fget m load)
      ~guard:San.Effect.(Cmp (Mark up, Eq, Int 1))
      San.Effect.(Ops [ Set (up, Int 0) ]);
    San.Model.Builder.timed_exp_rate_ir b ~name:"repair"
      ~rate:(San.Effect.RConst 2.0)
      ~guard:San.Effect.(Cmp (Mark up, Eq, Int 0))
      San.Effect.(Ops [ Set (up, Int 1) ]);
    ("closure timing", San.Model.Builder.build b)
  in
  let models =
    goldens
    @ List.map itua
        [
          ("domain", Itua.Params.Domain_exclusion);
          ("host", Itua.Params.Host_exclusion);
        ]
    @ [ closure ]
  in
  List.iter
    (fun (f, model) ->
      let acts = San.Model.activities model in
      let table = San.Model.dependents_table model in
      Alcotest.(check int) (f ^ ": one row per place")
        (San.Model.n_places model) (Array.length table);
      let reads_of (a : San.Activity.t) = List.map San.Place.any_uid a.reads in
      (* [reads] is derived: exactly the IR reads, in uid order, or
         every place, in uid order, for a closure timing. *)
      Array.iter
        (fun (a : San.Activity.t) ->
          match a.timing with
          | San.Activity.Timed { dist_ir = None; _ } ->
              Alcotest.(check (list int))
                (Printf.sprintf "%s: %s reads every place" f a.name)
                (List.init (San.Model.n_places model) Fun.id)
                (reads_of a)
          | San.Activity.Timed { dist_ir = Some _; _ }
          | San.Activity.Instantaneous ->
              Alcotest.(check (list int))
                (Printf.sprintf "%s: %s reads = ir_reads" f a.name)
                (San.Activity.ir_reads a) (reads_of a))
        acts;
      Array.iteri
        (fun uid row ->
          let from_reads =
            Array.to_list acts
            |> List.concat_map (fun (a : San.Activity.t) ->
                   List.filter_map
                     (fun u -> if u = uid then Some a.id else None)
                     (reads_of a))
          in
          let ids row = List.map (fun (a : San.Activity.t) -> a.id) row in
          let label = Printf.sprintf "%s: dependents of uid %d" f uid in
          Alcotest.(check (list int)) label from_reads
            (ids (Array.to_list row));
          Alcotest.(check (list int)) label
            (ids (San.Model.dependents model uid))
            (ids (Array.to_list row));
          Array.iter
            (fun (a : San.Activity.t) ->
              if not (a == acts.(a.id)) then
                Alcotest.failf "%s: not the model's activity" label)
            row)
        table;
      let inst =
        Array.to_list acts
        |> List.filter San.Activity.is_instantaneous
        |> List.map (fun (a : San.Activity.t) -> a.id)
      in
      Alcotest.(check (list int)) (f ^ ": instantaneous ids") inst
        (Array.to_list (San.Model.instantaneous_ids model));
      Alcotest.(check bool) (f ^ ": tables are not rebuilt per call") true
        (San.Model.dependents_table model == table
        && San.Model.instantaneous_ids model
           == San.Model.instantaneous_ids model))
    models

(* A checkpoint resumes only on the model object it was taken from:
   another model is rejected even when its tables have the same shape. *)
let test_checkpoint_other_model_rejected () =
  let queue lambda = Test_models.mm1k ~lambda ~mu:1.2 ~k:8 in
  let q = queue 1.0 in
  let model = q.Test_models.q_model and len = q.Test_models.q_len in
  let cfg = Sim.Executor.config ~horizon:50.0 () in
  let importance m = San.Marking.get m len in
  match
    Sim.Executor.run_to_level ~model ~config:cfg ~stream:(stream 99)
      ~observer:Sim.Observer.nop ~importance ~threshold:3 ()
  with
  | Sim.Executor.Finished _ -> Alcotest.fail "expected a crossing"
  | Sim.Executor.Crossed { checkpoint; _ } ->
      let raises label f =
        Alcotest.(check bool) label true
          (match f () with
          | () -> false
          | exception Invalid_argument _ -> true)
      in
      let resume model () =
        ignore
          (Sim.Executor.resume ~model ~config:cfg ~stream:(stream 1)
             ~observer:Sim.Observer.nop checkpoint
            : Sim.Executor.outcome)
      in
      let gong = (Test_models.gong ()).Test_models.g_model in
      raises "resume on another model raises" (resume gong);
      let twin = (queue 2.0).Test_models.q_model in
      Alcotest.(check int) "same activity count"
        (Array.length (San.Model.activities model))
        (Array.length (San.Model.activities twin));
      raises "resume on a same-shape model raises" (resume twin);
      raises "run_to_level from a same-shape model raises" (fun () ->
          ignore
            (Sim.Executor.run_to_level ~from_:checkpoint ~model:twin
               ~config:cfg ~stream:(stream 1) ~observer:Sim.Observer.nop
               ~importance ~threshold:5 ()
              : Sim.Executor.split_outcome));
      resume model ()

(* Enabledness of instantaneous activities is tracked incrementally; at
   every stable marking no instantaneous guard may hold (a full scan
   would find none). Returns the total instantaneous steps taken. *)
let check_stable_markings ~label ~horizon ~seeds model =
  let acts = San.Model.activities model in
  let inst = Array.map (fun id -> acts.(id)) (San.Model.instantaneous_ids model) in
  let check_invariants m =
    Array.iter
      (fun (a : San.Activity.t) ->
        if a.enabled m then
          Alcotest.failf "%s: %s enabled at a stable marking" label a.name)
      inst
  in
  let metrics = Sim.Metrics.create ~model in
  let config = Sim.Executor.config ~max_events:20_000 ~horizon () in
  List.iter
    (fun seed ->
      ignore
        (Sim.Executor.run ~metrics ~check_invariants ~model ~config
           ~stream:(stream seed) ~observer:Sim.Observer.nop ()
          : Sim.Executor.outcome))
    seeds;
  metrics.Sim.Metrics.chain_steps + metrics.Sim.Metrics.setup_events

let test_stable_markings_itua () =
  List.iter
    (fun policy ->
      let h =
        Itua.Model.build
          {
            Itua.Params.default with
            Itua.Params.num_domains = 3;
            hosts_per_domain = 2;
            num_apps = 2;
            policy;
          }
      in
      let steps =
        check_stable_markings ~label:"itua" ~horizon:5.0
          ~seeds:(List.init 20 Fun.id) h.Itua.Model.model
      in
      Alcotest.(check bool) "instantaneous activities fired" true (steps > 0))
    [ Itua.Params.Domain_exclusion; Itua.Params.Host_exclusion ]

let test_stable_markings_golden () =
  List.iter
    (fun (f, model) ->
      ignore
        (check_stable_markings ~label:f ~horizon:10.0 ~seeds:[ 1; 2; 3 ] model
          : int))
    (Test_models.golden_models ())

(* An instantaneous guard that reads a place missing from the declared
   [reads] still wakes up when that place changes: "react" fires right
   after the second tick, exactly where a full scan of the guards would
   fire it. *)
let test_undeclared_guard_read_fires () =
  let b = San.Model.Builder.create "undeclared" in
  let x = San.Model.Builder.int_place b "x" in
  let fired = San.Model.Builder.int_place b "fired" in
  San.Model.Builder.timed_dist_ir b ~name:"tick"
    ~dist:San.(Activity.DDet (Effect.RConst 1.0))
    ~guard:(San.Effect.Const true)
    [ San.Activity.make_case San.Effect.(Ops [ Inc (x, Int 1) ]) ];
  San.Model.Builder.instantaneous_ir b ~name:"react"
    ~guard:San.Effect.(All [ Cmp (Mark x, Ge, Int 2); Cmp (Mark fired, Eq, Int 0) ])
    San.Effect.(Ops [ Set (fired, Int 1) ]);
  let model = San.Model.Builder.build b in
  let react = San.Model.find_activity model "react" in
  Alcotest.(check (list string)) "guard read indexed" [ "react" ]
    (List.map
       (fun (a : San.Activity.t) -> a.name)
       (San.Model.dependents model (San.Place.uid x)));
  let fires = ref [] in
  let observer =
    {
      Sim.Observer.nop with
      on_fire =
        (fun t a _ m ->
          if a == react then fires := (t, San.Marking.get m x) :: !fires);
    }
  in
  let outcome = run_simple model ~horizon:4.5 ~seed:1 ~observer in
  Alcotest.(check (list (pair (float 0.0) int)))
    "fires once, at the second tick" [ (2.0, 2) ] !fires;
  Alcotest.(check int) "fired" 1
    (San.Marking.get outcome.Sim.Executor.final fired)

(* The t = 0 template: the setup chain arms "go", whose guard reads
   [armed] although "go" declares only [gone]. The builder appends
   [armed] to its reads, so the setup's propagation wakes and schedules
   it, and the template's timed list (the timed activities enabled in
   the initial marking) is empty. *)
let test_template_undeclared_timed_guard () =
  let b = San.Model.Builder.create "template" in
  let armed = San.Model.Builder.int_place b "armed" in
  let gone = San.Model.Builder.int_place b "gone" in
  San.Model.Builder.instantaneous_ir b ~name:"arm"
    ~guard:San.Effect.(Cmp (Mark armed, Eq, Int 0))
    San.Effect.(Ops [ Set (armed, Int 1) ]);
  San.Model.Builder.timed_exp_rate_ir b ~name:"go"
    ~rate:(San.Effect.RConst 1.0)
    ~guard:
      San.Effect.(
        All [ Cmp (Mark armed, Eq, Int 1); Cmp (Mark gone, Eq, Int 0) ])
    San.Effect.(Ops [ Set (gone, Int 1) ]);
  San.Model.Builder.timed_exp_rate_ir b ~name:"idle"
    ~rate:(San.Effect.RConst 1.0)
    ~guard:San.Effect.(Cmp (Mark gone, Eq, Int 2))
    San.Effect.Skip;
  let model = San.Model.Builder.build b in
  let id name = (San.Model.find_activity model name).San.Activity.id in
  Alcotest.(check (array int)) "instantaneous enabled at t = 0"
    [| id "arm" |] (San.Model.initial_instantaneous model);
  Alcotest.(check (list string)) "arm wakes go" [ "arm"; "go" ]
    (List.map
       (fun (a : San.Activity.t) -> a.name)
       (San.Model.dependents model (San.Place.uid armed)));
  Alcotest.(check (array int)) "no timed candidates" [||]
    (San.Model.initial_timed model);
  let outcome =
    run_simple model ~horizon:100.0 ~seed:1 ~observer:Sim.Observer.nop
  in
  Alcotest.(check int) "go fired" 1
    (San.Marking.get outcome.Sim.Executor.final gone)

(* A timed guard that reads a place missing from the declared [reads]
   is woken when that place changes: "go" is disabled at t = 0, "tick"
   enables it at t = 1, and it fires half a time unit later. *)
let test_undeclared_timed_guard_wakes () =
  let b = San.Model.Builder.create "timed_wake" in
  let x = San.Model.Builder.int_place b "x" in
  let fired = San.Model.Builder.int_place b "fired" in
  San.Model.Builder.timed_dist_ir b ~name:"tick"
    ~dist:San.(Activity.DDet (Effect.RConst 1.0))
    ~guard:San.Effect.(Cmp (Mark x, Eq, Int 0))
    [ San.Activity.make_case San.Effect.(Ops [ Inc (x, Int 1) ]) ];
  San.Model.Builder.timed_dist_ir b ~name:"go"
    ~dist:San.(Activity.DDet (Effect.RConst 0.5))
    ~guard:San.Effect.(All [ Cmp (Mark x, Ge, Int 1); Cmp (Mark fired, Eq, Int 0) ])
    [ San.Activity.make_case San.Effect.(Ops [ Set (fired, Int 1) ]) ];
  let model = San.Model.Builder.build b in
  let go = San.Model.find_activity model "go" in
  let fires = ref [] in
  let observer =
    {
      Sim.Observer.nop with
      on_fire = (fun t a _ _ -> if a == go then fires := t :: !fires);
    }
  in
  let outcome = run_simple model ~horizon:4.0 ~seed:1 ~observer in
  Alcotest.(check (list (float 0.0))) "fires once, at 1.5" [ 1.5 ] !fires;
  Alcotest.(check int) "fired" 1
    (San.Marking.get outcome.Sim.Executor.final fired)

(* A rate read in a branch no run takes and a case-weight read are in
   the dependents table: [go] reads [hidden] only in the [flag = 1] arm
   of its rate, and [choose] weighs its first case by [bias]. Each
   activity's [reads] is in uid order, whatever order the guard, rate
   and weights read in. *)
let test_ir_reads_in_dependents () =
  let module E = San.Effect in
  let b = San.Model.Builder.create "ir_reads" in
  let flag = San.Model.Builder.int_place b "flag" in
  let hidden = San.Model.Builder.int_place b ~init:1 "hidden" in
  let bias = San.Model.Builder.int_place b ~init:3 "bias" in
  let n = San.Model.Builder.int_place b "n" in
  let step = E.(Ops [ Inc (n, Int 1) ]) in
  San.Model.Builder.timed_dist_ir b ~name:"go"
    ~dist:
      (San.Activity.DExp
         E.(
           RIf
             ( Cmp (Mark flag, Eq, Int 1),
               RExpr (OfInt (Mark hidden)),
               RConst 1.0 )))
    ~guard:E.(Cmp (Mark n, Lt, Int 3))
    [ San.Activity.make_case step ];
  San.Model.Builder.timed_dist_ir b ~name:"choose"
    ~dist:(San.Activity.DExp (E.RConst 1.0))
    ~guard:E.(Cmp (Mark n, Lt, Int 3))
    San.Activity.
      [ make_case ~weight:E.(RExpr (OfInt (Mark bias))) step; make_case step ];
  let model = San.Model.Builder.build b in
  let names ps = List.map San.Place.any_name ps in
  let deps p =
    List.map
      (fun (a : San.Activity.t) -> a.name)
      (San.Model.dependents model (San.Place.uid p))
  in
  Alcotest.(check (list string)) "untaken rate read" [ "go" ] (deps hidden);
  Alcotest.(check (list string)) "weight read" [ "choose" ] (deps bias);
  Alcotest.(check (list string)) "go's reads" [ "flag"; "hidden"; "n" ]
    (names (San.Model.find_activity model "go").San.Activity.reads);
  Alcotest.(check (list string)) "choose's reads" [ "bias"; "n" ]
    (names (San.Model.find_activity model "choose").San.Activity.reads)

(* An exponential whose rate is exactly 0 draws no delay and does not
   fire: "go" (rate = [scale * x]) waits until "tick" sets [x] to 2 at
   t = 1, and is then scheduled. A negative rate still raises. *)
let test_zero_rate_waits () =
  let build scale =
    let b = San.Model.Builder.create "zero_rate" in
    let x = San.Model.Builder.int_place b "x" in
    let gone = San.Model.Builder.int_place b "gone" in
    San.Model.Builder.timed_dist_ir b ~name:"tick"
      ~dist:San.(Activity.DDet (Effect.RConst 1.0))
      ~guard:San.Effect.(Cmp (Mark x, Eq, Int 0))
      [ San.Activity.make_case San.Effect.(Ops [ Set (x, Int 2) ]) ];
    San.Model.Builder.timed_exp_rate_ir b ~name:"go"
      ~rate:San.Effect.(RExpr (FMul (Flt scale, OfInt (Mark x))))
      ~guard:San.Effect.(Cmp (Mark gone, Eq, Int 0))
      San.Effect.(Ops [ Set (gone, Int 1) ]);
    (San.Model.Builder.build b, gone)
  in
  let model, gone = build 1.0 in
  let go = San.Model.find_activity model "go" in
  for seed = 1 to 20 do
    let fired_at = ref nan in
    let observer =
      {
        Sim.Observer.nop with
        on_fire = (fun t a _ _ -> if a == go then fired_at := t);
      }
    in
    let outcome = run_simple model ~horizon:1e6 ~seed ~observer in
    Alcotest.(check int) "go fired" 1
      (San.Marking.get outcome.Sim.Executor.final gone);
    if not (!fired_at > 1.0) then
      Alcotest.failf "seed %d: go fired at %g, before its rate was positive"
        seed !fired_at
  done;
  let model, _ = build (-1.0) in
  Alcotest.(check bool) "negative rate raises" true
    (match run_simple model ~horizon:2.0 ~seed:1 ~observer:Sim.Observer.nop with
    | (_ : Sim.Executor.outcome) -> false
    | exception Invalid_argument _ -> true);
  (* A constant rate follows the same rule: 0 builds and never fires, a
     negative constant is rejected by the builder. *)
  let build_const rate =
    let b = San.Model.Builder.create "zero_const" in
    let x = San.Model.Builder.int_place b "x" in
    San.Model.Builder.timed_exp_rate_ir b ~name:"never"
      ~rate:(San.Effect.RConst rate)
      ~guard:San.Effect.(Cmp (Mark x, Eq, Int 0))
      San.Effect.(Ops [ Set (x, Int 1) ]);
    (San.Model.Builder.build b, x)
  in
  let model, x = build_const 0.0 in
  let outcome = run_simple model ~horizon:1e6 ~seed:1 ~observer:Sim.Observer.nop in
  Alcotest.(check int) "constant 0 never fires" 0
    (San.Marking.get outcome.Sim.Executor.final x);
  Alcotest.(check bool) "constant negative rejected" true
    (match build_const (-1.0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Two domains read the same model tables concurrently; the result must
   equal the one-domain run replication for replication. *)
let test_runner_two_domains_match_one () =
  let h =
    Itua.Model.build
      {
        Itua.Params.default with
        Itua.Params.num_domains = 3;
        hosts_per_domain = 2;
        num_apps = 2;
      }
  in
  let model = h.Itua.Model.model in
  let spec =
    Sim.Runner.spec ~model ~horizon:5.0
      [
        Itua.Measures.unavailability h ~until:5.0;
        Itua.Measures.unreliability h ~until:5.0;
      ]
  in
  let run domains =
    let metrics = Sim.Metrics.create ~model in
    let results = Sim.Runner.run ~domains ~metrics ~seed:7L ~reps:60 spec in
    (results, metrics)
  in
  let r1, m1 = run 1 and r2, m2 = run 2 in
  List.iter2
    (fun (a : Sim.Runner.result) (b : Sim.Runner.result) ->
      Alcotest.(check int) (a.name ^ ": runs") a.n_runs b.n_runs;
      Alcotest.(check int) (a.name ^ ": defined") a.n_defined b.n_defined;
      Alcotest.(check (float 1e-12)) (a.name ^ ": mean") a.ci.Stats.Ci.mean
        b.ci.Stats.Ci.mean)
    r1 r2;
  Alcotest.(check int) "events" m1.Sim.Metrics.events m2.Sim.Metrics.events;
  Alcotest.(check (array int)) "per-activity firings" m1.Sim.Metrics.firings
    m2.Sim.Metrics.firings

let test_splitting_two_state_agrees_with_crude () =
  (* Non-rare event, P(ever down by t) = 1 - exp(-λt) ≈ 0.39: splitting
     must agree with the closed form and with a crude-MC estimate. *)
  let ts = Test_models.two_state ~lambda:1.0 ~mu:2.0 in
  let model = ts.Test_models.ts_model and up = ts.Test_models.up in
  let horizon = 0.5 in
  let exact = 1.0 -. exp (-.horizon) in
  let importance m = if San.Marking.get m up = 0 then 1 else 0 in
  let r =
    Sim.Splitting.run ~model
      ~config:(Sim.Executor.config ~horizon ())
      ~importance ~levels:1 ~clones:2 ~initial:4000 ~seed:7L ()
  in
  let est = r.Sim.Splitting.estimate in
  if not (Stats.Ci.contains est.Stats.Splitting.ci exact) then
    Alcotest.failf "splitting CI %s misses exact %.4f"
      (Format.asprintf "%a" Stats.Ci.pp est.Stats.Splitting.ci)
      exact;
  (* Crude MC of the same event on an independent seed. *)
  let n = 4000 in
  let root = Prng.Stream.create ~seed:8L in
  let cfg =
    Sim.Executor.config ~horizon
      ~stop:(fun m -> San.Marking.get m up = 0)
      ()
  in
  let hits = ref 0 in
  let base = ref (Prng.Stream.substream root 0) in
  for i = 0 to n - 1 do
    if i > 0 then base := Prng.Stream.successor !base;
    let o =
      Sim.Executor.run ~model ~config:cfg
        ~stream:(Prng.Stream.substream !base 0)
        ~observer:Sim.Observer.nop ()
    in
    if o.Sim.Executor.stopped_early then incr hits
  done;
  let crude = float_of_int !hits /. float_of_int n in
  let sigma_crude = sqrt (crude *. (1.0 -. crude) /. float_of_int n) in
  let sigma_split = sqrt (Stats.Splitting.variance est) in
  let gap = Float.abs (crude -. est.Stats.Splitting.probability) in
  let bound = 3.0 *. sqrt ((sigma_crude ** 2.0) +. (sigma_split ** 2.0)) in
  if gap > bound then
    Alcotest.failf "crude %.4f vs splitting %.4f: gap %.4f > 3σ %.4f" crude
      est.Stats.Splitting.probability gap bound

let test_splitting_mm1k_matches_ctmc () =
  (* Multi-level run against the exact CTMC: P(queue ever reaches 5
     within t=10) for M/M/1/8 at ρ = 0.5. *)
  let q = Test_models.mm1k ~lambda:1.0 ~mu:2.0 ~k:8 in
  let model = q.Test_models.q_model and len = q.Test_models.q_len in
  let target = 5 in
  let c = Ctmc.Explore.explore model in
  let exact =
    Ctmc.Measure.ever c ~until:10.0 (fun m -> San.Marking.get m len >= target)
  in
  let r =
    Sim.Splitting.run ~model
      ~config:(Sim.Executor.config ~horizon:10.0 ())
      ~importance:(fun m -> Int.min target (San.Marking.get m len))
      ~levels:target ~clones:3 ~initial:2000 ~seed:11L ()
  in
  let est = r.Sim.Splitting.estimate in
  Alcotest.(check int) "one stage per level" target
    (Array.length est.Stats.Splitting.stages);
  let sigma = sqrt (Stats.Splitting.variance est) in
  let gap = Float.abs (est.Stats.Splitting.probability -. exact) in
  if gap > 3.0 *. sigma then
    Alcotest.failf "splitting %.5g vs exact %.5g: gap %.3g > 3σ = %.3g"
      est.Stats.Splitting.probability exact gap (3.0 *. sigma)

let test_splitting_deterministic_across_domains () =
  let q = Test_models.mm1k ~lambda:1.0 ~mu:2.0 ~k:8 in
  let model = q.Test_models.q_model and len = q.Test_models.q_len in
  let go domains =
    let r =
      Sim.Splitting.run ~domains ~model
        ~config:(Sim.Executor.config ~horizon:10.0 ())
        ~importance:(fun m -> Int.min 5 (San.Marking.get m len))
        ~levels:5 ~clones:3 ~initial:500 ~seed:11L ()
    in
    ( r.Sim.Splitting.estimate.Stats.Splitting.probability,
      r.Sim.Splitting.total_events,
      Array.to_list
        (Array.map
           (fun s -> (s.Stats.Splitting.trials, s.Stats.Splitting.hits))
           r.Sim.Splitting.estimate.Stats.Splitting.stages) )
  in
  let p1, e1, s1 = go 1 and p4, e4, s4 = go 4 in
  Alcotest.(check (float 0.0)) "identical probability" p1 p4;
  Alcotest.(check int) "identical total events" e1 e4;
  Alcotest.(check (list (pair int int))) "identical stage counts" s1 s4

let test_splitting_validation () =
  let q = Test_models.mm1k ~lambda:1.0 ~mu:2.0 ~k:8 in
  let model = q.Test_models.q_model and len = q.Test_models.q_len in
  let cfg = Sim.Executor.config ~horizon:1.0 () in
  let importance m = San.Marking.get m len in
  let rejects name f =
    Alcotest.(check bool) name true
      (match f () with
      | (_ : Sim.Splitting.result) -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "levels 0" (fun () ->
      Sim.Splitting.run ~model ~config:cfg ~importance ~levels:0 ~clones:2
        ~initial:10 ~seed:1L ());
  rejects "clones 0" (fun () ->
      Sim.Splitting.run ~model ~config:cfg ~importance ~levels:2 ~clones:0
        ~initial:10 ~seed:1L ());
  rejects "initial 1" (fun () ->
      Sim.Splitting.run ~model ~config:cfg ~importance ~levels:2 ~clones:2
        ~initial:1 ~seed:1L ());
  rejects "stage explosion" (fun () ->
      Sim.Splitting.run ~model ~config:cfg ~importance ~max_stage_trials:16
        ~levels:3 ~clones:100 ~initial:16 ~seed:1L ())

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_heap_sorts; prop_heap_matches_lazy_reference ]
  in
  Alcotest.run "sim"
    [
      ( "event-heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "bad times" `Quick test_heap_rejects_bad_time;
          Alcotest.test_case "re-push tie" `Quick test_heap_repush_tie;
          Alcotest.test_case "copy independent" `Quick
            test_heap_copy_independent;
          Alcotest.test_case "clear and blit" `Quick test_heap_clear_and_blit;
        ] );
      ( "splitting",
        [
          Alcotest.test_case "checkpoint round-trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "clones independent" `Quick
            test_checkpoint_clones_independent;
          Alcotest.test_case "two-state vs crude MC" `Slow
            test_splitting_two_state_agrees_with_crude;
          Alcotest.test_case "mm1k vs exact ctmc" `Slow
            test_splitting_mm1k_matches_ctmc;
          Alcotest.test_case "cross-core identical" `Slow
            test_splitting_deterministic_across_domains;
          Alcotest.test_case "validation" `Quick test_splitting_validation;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "reuse across seeds" `Quick
            test_workspace_reuse_across_seeds;
          Alcotest.test_case "reuse after a raise" `Quick
            test_workspace_reuse_after_raise;
          Alcotest.test_case "reuse after a crossing" `Quick
            test_workspace_reuse_after_crossing;
          Alcotest.test_case "resume into a dirty workspace" `Quick
            test_workspace_resume_dirty;
          Alcotest.test_case "other model rejected" `Quick
            test_workspace_other_model_rejected;
          Alcotest.test_case "no major-heap allocation" `Quick
            test_workspace_no_major_allocation;
        ] );
      ( "executor",
        [
          Alcotest.test_case "deterministic clock" `Quick
            test_deterministic_clock;
          Alcotest.test_case "stop predicate" `Quick test_stop_predicate;
          Alcotest.test_case "instantaneous chain" `Quick
            test_instantaneous_chain;
          Alcotest.test_case "stabilization divergence" `Quick
            test_stabilization_divergence_detected;
          Alcotest.test_case "policy keep" `Quick test_policy_keep;
          Alcotest.test_case "policy resample" `Quick test_policy_resample;
          Alcotest.test_case "disabling aborts" `Quick test_disabling_aborts;
          Alcotest.test_case "no double scheduling after setup" `Slow
            test_no_double_scheduling_after_setup;
          Alcotest.test_case "advance tiling" `Quick test_advance_tiling;
          Alcotest.test_case "run tables match dependents" `Quick
            test_run_tables_match_dependents;
          Alcotest.test_case "checkpoint from another model" `Quick
            test_checkpoint_other_model_rejected;
          Alcotest.test_case "stable markings itua" `Quick
            test_stable_markings_itua;
          Alcotest.test_case "stable markings golden" `Quick
            test_stable_markings_golden;
          Alcotest.test_case "undeclared guard read fires" `Quick
            test_undeclared_guard_read_fires;
          Alcotest.test_case "template: undeclared timed guard" `Quick
            test_template_undeclared_timed_guard;
          Alcotest.test_case "undeclared timed guard read wakes" `Quick
            test_undeclared_timed_guard_wakes;
          Alcotest.test_case "IR reads in dependents" `Quick
            test_ir_reads_in_dependents;
          Alcotest.test_case "zero exponential rate waits" `Quick
            test_zero_rate_waits;
        ] );
      ( "rewards",
        [
          Alcotest.test_case "instant right-continuous" `Quick
            test_reward_instant_right_continuous;
          Alcotest.test_case "time average and integral" `Quick
            test_reward_time_average_and_integral;
          Alcotest.test_case "ever and first passage" `Quick
            test_reward_ever_and_first_passage;
          Alcotest.test_case "impulse" `Quick test_reward_impulse;
          Alcotest.test_case "window validation" `Quick
            test_reward_window_validation;
        ] );
      ( "validation",
        [
          Alcotest.test_case "two-state availability" `Slow
            test_two_state_availability;
          Alcotest.test_case "tandem absorption" `Slow
            test_tandem_unreliability;
          Alcotest.test_case "M/M/1/K mean queue" `Slow test_mm1k_mean_queue;
        ] );
      ( "non-exponential",
        [
          Alcotest.test_case "erlang first passage (KS)" `Slow
            test_erlang_first_passage_distribution;
        ] );
      ( "trace",
        [
          Alcotest.test_case "output" `Quick test_trace_output;
          Alcotest.test_case "show marking" `Quick test_trace_show_marking;
        ] );
      ( "trajectory",
        [
          Alcotest.test_case "records the clock" `Quick
            test_trajectory_records_clock;
          Alcotest.test_case "cross-core identical" `Quick
            test_trajectory_cross_core_identical;
          Alcotest.test_case "retention bounds" `Quick
            test_trajectory_retention_bounds;
          Alcotest.test_case "json round-trip" `Quick
            test_trajectory_json_roundtrip;
          Alcotest.test_case "validation" `Quick test_trajectory_validation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters match outcome" `Quick
            test_metrics_counters_match_outcome;
          Alcotest.test_case "cancellations and never_fired" `Quick
            test_metrics_cancellations_and_never_fired;
          Alcotest.test_case "domain merge" `Slow test_metrics_domain_merge;
          Alcotest.test_case "merge and reset" `Quick
            test_metrics_merge_and_reset;
        ] );
      ( "progress",
        [
          Alcotest.test_case "run reports" `Quick test_run_progress;
          Alcotest.test_case "run_until reports" `Slow
            test_run_until_progress;
        ] );
      ( "steady-state",
        [
          Alcotest.test_case "mm1k batch means" `Slow
            test_steady_mm1k_batch_means;
          Alcotest.test_case "validation" `Quick test_steady_validation;
          Alcotest.test_case "constant reward" `Quick
            test_steady_constant_reward;
        ] );
      ( "runner",
        [
          Alcotest.test_case "reproducible" `Quick test_runner_reproducible;
          Alcotest.test_case "two domains match one" `Quick
            test_runner_two_domains_match_one;
          Alcotest.test_case "parallel matches" `Slow
            test_runner_parallel_matches_counts;
          Alcotest.test_case "nan handling" `Quick test_runner_nan_handling;
          Alcotest.test_case "run_until precision" `Slow
            test_run_until_precision;
          Alcotest.test_case "run_until cap" `Quick test_run_until_caps_at_max;
          Alcotest.test_case "run_until deterministic" `Slow
            test_run_until_deterministic;
        ] );
      ("properties", props);
    ]
