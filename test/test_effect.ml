(* Tests for the effect IR: interpreter semantics, the order and cap of
   analytical outcomes, static read/write extraction, a pinned executor
   run, linear sharing of the ITUA cascade, the exact A014-A015
   diagnostics (one deliberately broken fixture per code), exact-law
   span skipping, and the exact integer rank. *)

module B = San.Model.Builder
module M = San.Marking
module E = San.Effect
module D = Analysis.Diagnostic
module St = Analysis.Structure

let with_code code (r : Analysis.Check.t) =
  List.filter
    (fun (d : D.t) -> d.D.code = code)
    r.Analysis.Check.diagnostics

let message_mentions ~needle (d : D.t) =
  let hay = d.D.message and n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* --- IR interpreter semantics --- *)

let two_places () =
  let b = B.create "ir" in
  let p = B.int_place b ~init:3 "p" in
  let q = B.int_place b "q" in
  (b, p, q)

let marking b =
  let model = B.build b in
  (model, San.Model.initial_marking model)

(* [E.outcomes] collected in the order it yields them. *)
let outcomes eff m =
  let outs = ref [] in
  E.outcomes eff m (fun w m' -> outs := (w, m') :: !outs);
  List.rev !outs

let test_eval_holds () =
  let b, p, q = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) E.Skip;
  let _, m = marking b in
  Alcotest.(check int) "arith" 7 (E.eval m E.(Add (Mark p, Mul (Int 2, Int 2))));
  Alcotest.(check int) "sub" 3 (E.eval m E.(Sub (Mark p, Mark q)));
  Alcotest.(check int) "indicator true" 1
    (E.eval m E.(Ind (Cmp (Mark p, Ge, Int 3))));
  Alcotest.(check int) "indicator false" 0
    (E.eval m E.(Ind (Cmp (Mark p, Lt, Int 3))));
  Alcotest.(check bool) "all" true
    (E.holds m E.(All [ Cmp (Mark p, Eq, Int 3); Not (Cmp (Mark q, Ne, Int 0)) ]));
  Alcotest.(check bool) "any empty is false" false (E.holds m (E.Any []))

let test_apply_ops_order () =
  let b, p, q = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) E.Skip;
  let _, m = marking b in
  (* Ops run in order: the Inc sees the Set's value. *)
  E.apply (Prng.Stream.create ~seed:1L)
    E.(Ops [ Set (p, Int 10); Inc (q, Mark p) ])
    m;
  Alcotest.(check int) "set then inc" 10 (M.get m q)

let test_outcomes_pick () =
  let b, p, _ = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) E.Skip;
  let _, m = marking b in
  let outs =
    outcomes
      E.(
        Pick
          [
            (Const true, Ops [ Set (p, Int 0) ]);
            (Const false, Ops [ Set (p, Int 1) ]);
            (Const true, Ops [ Set (p, Int 2) ]);
          ])
      m
  in
  let outs =
    List.sort compare
      (List.map (fun (w, m') -> (M.get m' p, w)) outs)
  in
  Alcotest.(check (list (pair int (float 1e-9))))
    "feasible branches, uniform" [ (0, 0.5); (2, 0.5) ] outs

(* Every branch forks from the marking before the [Pick]: the first
   branch writes in place, so the others must copy it first. *)
let test_outcomes_pick_independent () =
  let b, p, q = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) E.Skip;
  let _, m = marking b in
  let outs =
    outcomes
      E.(
        Pick
          [
            (Const true, Ops [ Inc (p, Int 1) ]);
            (Const true, Ops [ Inc (q, Int 1) ]);
          ])
      m
  in
  Alcotest.(check (list (pair int int)))
    "each branch from (3, 0)" [ (3, 1); (4, 0) ]
    (List.sort compare (List.map (fun (_, m') -> (M.get m' p, M.get m' q)) outs))

(* Float sums over outcomes (CTMC rates) depend on their order, so it is
   pinned unsorted: a [Pick] yields its later feasible branches before
   its first, and a [Seq] runs its rest on each outcome of its head in
   turn. The list was recorded from the list-building implementation
   that preceded the depth-first walk. *)
let test_outcomes_order () =
  let b, p, q = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) E.Skip;
  let _, m = marking b in
  let eff =
    E.(
      Seq
        [
          Pick
            [
              (Const true, Ops [ Inc (p, Int 1) ]);
              ( Const true,
                Pick
                  [
                    (Const true, Ops [ Inc (q, Int 1) ]);
                    (Const true, Ops [ Inc (q, Int 2) ]);
                    (Const true, Ops [ Inc (q, Int 3) ]);
                  ] );
            ];
          Pick
            [
              (Cmp (Mark q, Eq, Int 0), Ops [ Inc (p, Int 10) ]);
              (Const true, Ops [ Inc (q, Int 10) ]);
            ];
        ])
  in
  let sixth = 0.5 /. 3.0 in
  Alcotest.(check (list (triple int int (float 0.0))))
    "depth-first, later branches first"
    [
      (3, 12, sixth); (3, 13, sixth); (3, 11, sixth); (4, 10, 0.25); (14, 0, 0.25);
    ]
    (List.map (fun (w, m') -> (M.get m' p, M.get m' q, w)) (outcomes eff m))

(* The fork cap is 4096 outcomes: twelve binary [Pick]s in sequence reach
   it exactly, a thirteenth exceeds it. *)
let test_outcomes_cap () =
  let b, p, _ = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) E.Skip;
  let model, _ = marking b in
  let flips n =
    E.Seq
      (List.init n (fun _ ->
           E.(Pick [ (Const true, Skip); (Const true, Ops [ Inc (p, Int 1) ]) ])))
  in
  let count = ref 0 and total = ref 0.0 and tokens = ref 0 in
  E.outcomes (flips 12) (San.Model.initial_marking model) (fun w m' ->
      incr count;
      total := !total +. w;
      tokens := !tokens + M.get m' p - 3);
  Alcotest.(check int) "12 picks: 4096 outcomes" 4096 !count;
  Alcotest.(check (float 1e-12)) "weights sum to 1" 1.0 !total;
  Alcotest.(check int) "each pick adds a token in half of them" (12 * 2048)
    !tokens;
  Alcotest.check_raises "13 picks exceed the cap" (E.Too_many_outcomes 4096)
    (fun () ->
      E.outcomes (flips 13) (San.Model.initial_marking model) (fun _ _ -> ()))

let test_static_reads_writes () =
  let b, p, q = two_places () in
  B.instantaneous_ir b ~name:"noop" ~guard:(E.Const false) E.Skip;
  let _, _ = marking b in
  let eff = E.(Ops [ Inc (p, Mark q) ]) in
  Alcotest.(check (list int))
    "inc reads its target and the expression"
    (List.sort compare [ San.Place.uid p; San.Place.uid q ])
    (E.static_reads eff);
  Alcotest.(check (list int)) "writes" [ San.Place.uid p ] (E.static_writes eff)

(* --- a pinned executor run --- *)

(* A model that exercises every IR feature the executor runs:
   marking-dependent branches, Picks (stream draws), case weights and
   multiple cases, plus float writes. *)
let branching_model () =
  let b = B.create "branching" in
  let p = B.int_place b ~init:5 "p" in
  let q = B.int_place b "q" in
  let acc = B.float_place b "acc" in
  B.timed_exp_cases_rate_ir b ~name:"churn"
    ~rate:E.(RExpr (FAdd (Flt 1.0, FMul (Flt 0.1, OfInt (Mark p)))))
    ~guard:E.(Cmp (Mark p, Gt, Int 0))
    [
      ( 2.0,
        E.(
          Seq
            [
              If
                ( Cmp (Mark q, Lt, Int 3),
                  Ops [ Inc (q, Int 1) ],
                  Ops [ Set (q, Int 0) ] );
              Ops [ FInc (acc, OfInt (Mark q)) ];
            ]) );
      ( 1.0,
        E.(
          Pick
            [
              (Cmp (Mark p, Gt, Int 1), Ops [ Inc (p, Int (-1)) ]);
              (Const true, Ops [ Inc (q, Int 2) ]);
            ]) );
    ];
  B.timed_exp_rate_ir b ~name:"refill"
    ~rate:(E.RConst 0.7)
    ~guard:E.(Cmp (Mark p, Lt, Int 5))
    E.(Ops [ Inc (p, Int 1) ]);
  B.build b

(* The 50 h run on [branching_model] (seed 42) fires 71 events, 22 of
   them through the [Pick] case with both branches feasible, so the
   executor draws from the stream inside an effect. Its event count and
   the digest of the markings it visits were recorded when the executor
   ran effects through a separately compiled program; running the IR
   itself must reproduce them bit for bit, float places included. *)
let test_branching_run_pinned () =
  let model = branching_model () in
  let p = San.Model.find_place model "p" in
  let seen = ref [ San.Model.initial_marking model ] and drawn = ref 0 in
  let observer =
    {
      Sim.Observer.nop with
      on_fire =
        (fun _ (a : San.Activity.t) case m ->
          if a.name = "churn" && case = 1 && M.get (List.hd !seen) p > 1 then
            incr drawn;
          seen := M.copy m :: !seen);
    }
  in
  let out =
    Sim.Executor.run ~model
      ~config:(Sim.Executor.config ~horizon:50.0 ())
      ~stream:(Prng.Stream.create ~seed:42L)
      ~observer ()
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun m ->
      Array.iter (Printf.bprintf buf "%d ") (M.int_snapshot m);
      Array.iter
        (fun x -> Printf.bprintf buf "%Lx " (Int64.bits_of_float x))
        (M.float_snapshot m);
      Buffer.add_char buf '\n')
    (List.rev !seen);
  Alcotest.(check int) "events" 71 out.Sim.Executor.events;
  Alcotest.(check int) "two-branch picks" 22 !drawn;
  Alcotest.(check string) "visited markings digest"
    "67b67e69c71f77cab02aa6dfc1da9309"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- one shared cascade --- *)

(* Effect nodes keyed by physical identity. *)
module Phys = Hashtbl.Make (struct
  type t = E.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let itua_params ~policy nd nh na nr =
  {
    Itua.Params.default with
    Itua.Params.num_domains = nd;
    hosts_per_domain = nh;
    num_apps = na;
    num_reps = nr;
    policy;
  }

let policies = [ Itua.Params.Domain_exclusion; Itua.Params.Host_exclusion ]

(* The exclusion cascade is one term per host and per domain, shared by
   every response activity. Rebuilding it inside each response made the
   IR quadratic (about 441k distinct effect nodes on 1x12x8x7); shared,
   the count is linear in hosts x replica slots. *)
let test_cascade_nodes_linear () =
  let nd, nh, na, nr = (1, 12, 8, 7) in
  List.iter
    (fun policy ->
      let h = Itua.Model.build (itua_params ~policy nd nh na nr) in
      let seen = Phys.create 4096 in
      let rec visit e =
        if not (Phys.mem seen e) then begin
          Phys.add seen e ();
          match e with
          | E.Skip | E.Ops _ -> ()
          | E.Seq es -> List.iter visit es
          | E.If (_, a, b) ->
              visit a;
              visit b
          | E.Pick bs -> List.iter (fun (_, e) -> visit e) bs
        end
      in
      Array.iter
        (fun (a : San.Activity.t) ->
          Array.iter (fun (c : San.Activity.case) -> visit c.effect) a.cases)
        (San.Model.activities h.Itua.Model.model);
      let hosts_x_slots = nd * nh * na * nr in
      let nodes = Phys.length seen in
      if nodes > 16 * hosts_x_slots then
        Alcotest.failf "%d distinct effect nodes for %d hosts x slots" nodes
          hosts_x_slots)
    policies

(* --- A014: statically dead branch --- *)

let test_a014_dead_branch () =
  let b = B.create "a014" in
  let p = B.int_place b ~init:1 "p" in
  B.timed_exp_rate_ir b ~name:"tick"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark p, Gt, Int 0))
    (* The then-branch is statically unreachable. *)
    E.(If (Const false, Ops [ Set (p, Int 9) ], Ops [ Set (p, Int 0) ]));
  let r = Analysis.Check.run (B.build b) in
  match with_code D.dead_branch r with
  | [ d ] ->
      Alcotest.(check bool) "info severity" true (d.D.severity = D.Info);
      Alcotest.(check bool) "says statically dead" true
        (message_mentions ~needle:"statically dead" d)
  | ds -> Alcotest.failf "expected one A014, got %d" (List.length ds)

(* --- A015: delta that can drive a place negative --- *)

let test_a015_negative_capable () =
  let b = B.create "a015" in
  let p = B.int_place b "p" in
  let tick = B.int_place b ~init:1 "tick" in
  (* The guard pins p = 0, and the effect decrements it anyway. *)
  B.timed_exp_rate_ir b ~name:"drain"
    ~rate:(E.RConst 1.0)
    ~guard:E.(All [ Cmp (Mark p, Eq, Int 0); Cmp (Mark tick, Gt, Int 0) ])
    E.(Ops [ Inc (p, Int (-1)) ]);
  let r = Analysis.Check.run (B.build b) in
  match with_code D.negative_capable r with
  | [ d ] ->
      Alcotest.(check bool) "warning severity" true
        (d.D.severity = D.Warning);
      Alcotest.(check bool) "explains the pin" true
        (message_mentions ~needle:"guard pins it at 0" d)
  | ds -> Alcotest.failf "expected one A015, got %d" (List.length ds)

(* --- exact laws: a law in the invariant basis is proven like any other --- *)

let test_law_in_basis () =
  let b = B.create "conserved" in
  let here = B.int_place b ~init:1 "here" in
  let there = B.int_place b "there" in
  B.timed_exp_rate_ir b ~name:"go"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark here, Gt, Int 0))
    E.(Ops [ Inc (here, Int (-1)); Inc (there, Int 1) ]);
  B.timed_exp_rate_ir b ~name:"back"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark there, Gt, Int 0))
    E.(Ops [ Inc (there, Int (-1)); Inc (here, Int 1) ]);
  let law =
    { St.law_name = "token"; law_terms = [ (here, 1); (there, 1) ] }
  in
  let r = Analysis.Check.run ~laws:[ law ] (B.build b) in
  let s = r.Analysis.Check.structure in
  Alcotest.(check bool) "exact incidence" true (s.St.incidence = St.Exact);
  (match s.St.laws with
  | [ lr ] ->
      Alcotest.(check string) "proven symbolically"
        "proven symbolically over the effect IR" lr.St.lr_how;
      Alcotest.(check (list (triple string int int))) "no violations" [] lr.St.lr_violations
  | _ -> Alcotest.fail "expected one law report");
  Alcotest.(check (list string)) "no sampled fallbacks" []
    r.Analysis.Check.sampled_fallbacks

let test_law_proven_symbolically () =
  (* A law that is NOT a semiflow of the atom rows taken separately
     per-branch would still be conserved; here we use a conditional
     effect whose branches both conserve, forcing the symbolic
     interpreter (not the span test) to answer. *)
  let b = B.create "cond-conserved" in
  let x = B.int_place b ~init:2 "x" in
  let y = B.int_place b "y" in
  let mode = B.int_place b ~init:1 "mode" in
  B.timed_exp_rate_ir b ~name:"shuffle"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark x, Gt, Int 0))
    E.(
      If
        ( Cmp (Mark mode, Eq, Int 1),
          Ops [ Inc (x, Int (-1)); Inc (y, Int 1); Set (mode, Int 0) ],
          Ops [ Inc (x, Int (-1)); Inc (y, Int 1); Set (mode, Int 1) ] ));
  let law = { St.law_name = "xy"; law_terms = [ (x, 1); (y, 1) ] } in
  let r = Analysis.Check.run ~laws:[ law ] (B.build b) in
  let s = r.Analysis.Check.structure in
  match s.St.laws with
  | [ lr ] ->
      Alcotest.(check (list (triple string int int))) "no violations" [] lr.St.lr_violations;
      Alcotest.(check (list string)) "no sampled fallbacks" []
        r.Analysis.Check.sampled_fallbacks
  | _ -> Alcotest.fail "expected one law report"

(* The law [q + r] is conserved, but only through the value [flag]
   carries out of an undecided [If]: the else branch takes one from [r]
   and clears [flag], and the later [Inc (q, 1 - flag)] gives it back.
   A join keeps only what both branches agree on, so [flag] is
   untrackable after it and the proof is incomplete; the law is then
   validated on the markings instead. *)
let test_law_through_join_unproven () =
  let b = B.create "join-boundary" in
  let x = B.int_place b ~init:1 "x" in
  let flag = B.int_place b "flag" in
  let q = B.int_place b "q" in
  let r = B.int_place b ~init:3 "r" in
  B.timed_exp_rate_ir b ~name:"move"
    ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark r, Gt, Int 0))
    E.(
      Seq
        [
          If
            ( Cmp (Mark x, Eq, Int 0),
              Ops [ Set (flag, Int 1) ],
              Ops [ Set (flag, Int 0); Inc (r, Int (-1)) ] );
          Ops [ Inc (q, Sub (Int 1, Mark flag)) ];
        ]);
  let law = { St.law_name = "qr"; law_terms = [ (q, 1); (r, 1) ] } in
  let r = Analysis.Check.run ~laws:[ law ] (B.build b) in
  match r.Analysis.Check.structure.St.laws with
  | [ lr ] ->
      Alcotest.(check bool) "symbolic proof incomplete" true
        (String.starts_with ~prefix:"symbolic proof incomplete" lr.St.lr_how);
      Alcotest.(check (list (triple string int int)))
        "holds on every marking" [] lr.St.lr_violations;
      Alcotest.(check (list string))
        "reported as a sampled fallback"
        [ "law \"qr\": symbolic proof incomplete, validated on markings only" ]
        r.Analysis.Check.sampled_fallbacks
  | _ -> Alcotest.fail "expected one law report"

(* Soundness of the law prover: whenever [case_drifts] proves a drift
   ([Proven] or [Drift k]) for a random effect over three int places,
   every outcome of every firing from every marking in {0,1,2}^3 moves
   the law by exactly that much. Firings that would drive a place
   negative, or reach a [Pick] with no feasible branch, are skipped:
   the executor fails on them too. *)
let prop_case_drifts_sound =
  let b = B.create "oracle" in
  let places = Array.init 3 (fun i -> B.int_place b (Printf.sprintf "p%d" i)) in
  let model = B.build b in
  let open QCheck2.Gen in
  let place = map (fun i -> places.(i)) (int_bound 2) in
  let small = int_range (-2) 2 in
  let iexpr =
    oneof
      [
        map (fun k -> E.Int k) small;
        map (fun p -> E.Mark p) place;
        map2 (fun p k -> E.Add (E.Mark p, E.Int k)) place small;
      ]
  in
  let cond =
    let cmp =
      map3
        (fun p rel k -> E.Cmp (E.Mark p, rel, E.Int k))
        place
        (oneofl E.[ Eq; Ne; Lt; Ge ])
        (int_bound 2)
    in
    oneof [ cmp; map (fun cs -> E.All cs) (list_size (int_range 1 2) cmp) ]
  in
  let op =
    map3
      (fun set p e -> if set then E.Set (p, e) else E.Inc (p, e))
      bool place iexpr
  in
  let effect =
    fix
      (fun self depth ->
        let ops = map (fun os -> E.Ops os) (list_size (int_range 1 3) op) in
        if depth = 0 then ops
        else
          frequency
            [
              (2, ops);
              ( 2,
                map
                  (fun es -> E.Seq es)
                  (list_size (int_range 1 3) (self (depth - 1))) );
              ( 2,
                map3 (fun c a e -> E.If (c, a, e)) cond (self (depth - 1))
                  (self (depth - 1)) );
              ( 1,
                map
                  (fun bs -> E.Pick bs)
                  (list_size (int_range 1 3) (pair cond (self (depth - 1)))) );
            ])
      2
    (* A top-level sequence, so that later blocks read what a join
       left behind. *)
    |> list_size (int_range 2 3) |> map (fun es -> E.Seq es)
  in
  (* A law: sorted [(place index, nonzero coefficient)] terms. *)
  let law =
    list_size (int_range 1 3) (pair (map San.Place.index place) small)
    |> map (fun ts ->
           List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j) ts
           |> List.filter (fun (_, k) -> k <> 0))
  in
  let weigh terms m =
    let v = M.int_snapshot m in
    List.fold_left (fun s (i, k) -> s + (k * v.(i))) 0 terms
  in
  let markings =
    List.init 27 (fun n ->
        let m = San.Model.initial_marking model in
        Array.iteri (fun i p -> M.set m p (n / [| 1; 3; 9 |].(i) mod 3)) places;
        m)
  in
  QCheck2.Test.make ~name:"case_drifts sound against outcomes" ~count:2000
    ~print:(fun (eff, terms) ->
      Format.asprintf "%a@ law %s" E.pp eff
        (String.concat " + "
           (List.map (fun (i, k) -> Printf.sprintf "%d*p%d" k i) terms)))
    (pair effect law)
    (fun (eff, terms) ->
      let expect =
        match
          (Analysis.Symbolic.case_drifts ~guard:(E.Const true) [| terms |] eff).(0)
        with
        | Analysis.Symbolic.Proven -> Some 0
        | Analysis.Symbolic.Drift k -> Some k
        | Analysis.Symbolic.Unproven _ -> None
      in
      match expect with
      | None -> true
      | Some k ->
          List.for_all
            (fun m ->
              match outcomes eff (M.copy m) with
              | outs ->
                  List.for_all
                    (fun (_, m') -> weigh terms m' - weigh terms m = k)
                    outs
              | exception (Invalid_argument _ | Failure _) -> true)
            markings)

(* The closure compiler's contract ([Effect.cond_fn], [Effect.rexpr_fn]):
   over random conditions and rate expressions on int and float places,
   a compiled guard agrees with [holds] and a compiled rate with [reval]
   bit for bit, on a random marking. Conditions reach every specialised
   arm of [cond_fn] (each relation against a constant, [All] of 0 to 5
   and [Any] of 0 to 4 terms); float constants include 0 and a negative,
   so [FDiv] can yield infinities and NaN. *)
let prop_closures_match_interpreter =
  let b = B.create "closures" in
  let ints = Array.init 3 (fun i -> B.int_place b (Printf.sprintf "p%d" i)) in
  let floats =
    Array.init 2 (fun i -> B.float_place b (Printf.sprintf "f%d" i))
  in
  let model = B.build b in
  let open QCheck2.Gen in
  let place = map (fun i -> ints.(i)) (int_bound 2) in
  let fplace = map (fun i -> floats.(i)) (int_bound 1) in
  let small = int_range (-2) 2 in
  let flt = oneofl [ 0.0; 1.0; -0.5; 2.5; 0.1 ] in
  let rel = oneofl E.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let rec iexpr d =
    let leaf =
      oneof [ map (fun k -> E.Int k) small; map (fun p -> E.Mark p) place ]
    in
    if d = 0 then leaf
    else
      let sub = iexpr (d - 1) in
      frequency
        [
          (2, leaf);
          (1, map2 (fun a b -> E.Add (a, b)) sub sub);
          (1, map2 (fun a b -> E.Sub (a, b)) sub sub);
          (1, map2 (fun a b -> E.Mul (a, b)) sub sub);
          (1, map (fun c -> E.Ind c) (cond (d - 1)));
        ]
  and cond d =
    let leaf =
      oneof
        [
          map (fun b -> E.Const b) bool;
          map3 (fun p r k -> E.Cmp (E.Mark p, r, E.Int k)) place rel small;
        ]
    in
    if d = 0 then leaf
    else
      let sub = cond (d - 1) and arg = iexpr (d - 1) in
      frequency
        [
          (2, leaf);
          (2, map3 (fun a r b -> E.Cmp (a, r, b)) arg rel arg);
          (1, map (fun cs -> E.All cs) (list_size (int_bound 5) sub));
          (1, map (fun cs -> E.Any cs) (list_size (int_bound 4) sub));
          (1, map (fun c -> E.Not c) sub);
        ]
  in
  let rec fexpr d =
    let leaf =
      oneof
        [
          map (fun x -> E.Flt x) flt;
          map (fun p -> E.FMark p) fplace;
          map (fun e -> E.OfInt e) (iexpr 1);
        ]
    in
    if d = 0 then leaf
    else
      let sub = fexpr (d - 1) in
      frequency
        [
          (2, leaf);
          (1, map2 (fun a b -> E.FAdd (a, b)) sub sub);
          (1, map2 (fun a b -> E.FSub (a, b)) sub sub);
          (1, map2 (fun a b -> E.FMul (a, b)) sub sub);
          (1, map2 (fun a b -> E.FDiv (a, b)) sub sub);
        ]
  in
  let rec rexpr d =
    let leaf =
      oneof [ map (fun x -> E.RConst x) flt; map (fun e -> E.RExpr e) (fexpr 2) ]
    in
    if d = 0 then leaf
    else
      let sub = rexpr (d - 1) in
      frequency
        [ (2, leaf); (1, map3 (fun c a b -> E.RIf (c, a, b)) (cond 2) sub sub) ]
  in
  let marking =
    pair (list_repeat 3 (int_bound 2)) (list_repeat 2 flt)
  in
  QCheck2.Test.make ~name:"closures match interpreter" ~count:2000
    ~print:(fun (c, r, (is, fs)) ->
      Format.asprintf "%a@ %a@ ints [%s] floats [%s]" E.pp_cond c E.pp_rexpr
        r
        (String.concat "; " (List.map string_of_int is))
        (String.concat "; " (List.map string_of_float fs)))
    (triple (cond 3) (rexpr 2) marking)
    (fun (c, r, (is, fs)) ->
      let m = San.Model.initial_marking model in
      List.iteri (fun i v -> M.set m ints.(i) v) is;
      List.iteri (fun i v -> M.fset m floats.(i) v) fs;
      E.cond_fn c m = E.holds m c
      && Int64.equal
           (Int64.bits_of_float (E.rexpr_fn r m))
           (Int64.bits_of_float (E.reval m r)))

(* --- ir dump determinism --- *)

let test_ir_dump_deterministic () =
  let model = branching_model () in
  let d1 = Analysis.Ir_dump.dump model in
  let d2 = Analysis.Ir_dump.dump model in
  let render d =
    Report.Json.to_string (Analysis.Ir_dump.to_json d)
  in
  Alcotest.(check string) "stable JSON" (render d1) (render d2);
  Alcotest.(check int) "both activities present" 2
    (List.length d1.Analysis.Ir_dump.activities);
  let churn = List.hd d1.Analysis.Ir_dump.activities in
  Alcotest.(check string) "name" "churn"
    churn.Analysis.Ir_dump.ad_name;
  Alcotest.(check bool) "guard reads p" true
    (List.mem "p" churn.Analysis.Ir_dump.ad_guard_reads)

(* --- rank --- *)

(* A dense integer vector as a sparse rank row: ascending columns, no
   zero entries. *)
let sparse v =
  Array.to_list (Array.mapi (fun i x -> (i, x)) v)
  |> List.filter (fun (_, x) -> x <> 0)

let unit_rows n = List.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))

let test_rank_unit_diagonal () =
  Alcotest.(check int) "no rows" 0 (St.rank []);
  Alcotest.(check int) "unit diagonal has full rank" 7
    (St.rank (List.map sparse (unit_rows 7)))

(* Appending integer combinations of the rows never changes the rank,
   and appending the unit diagonal always brings it to the column
   count. *)
let prop_rank_combinations =
  let cols = 5 in
  let open QCheck2.Gen in
  let gen =
    list_size (int_range 1 6) (array_size (return cols) (int_range (-3) 3))
    >>= fun rows ->
    list_size (int_range 1 4)
      (array_size (return (List.length rows)) (int_range (-3) 3))
    >|= fun combos -> (rows, combos)
  in
  let show v = String.concat " " (Array.to_list (Array.map string_of_int v)) in
  QCheck2.Test.make ~name:"rank unchanged by appended combinations"
    ~count:500
    ~print:(fun (rows, combos) ->
      "rows: " ^ String.concat "; " (List.map show rows) ^ " / combos: "
      ^ String.concat "; " (List.map show combos))
    gen
    (fun (rows, combos) ->
      let combine c =
        Array.init cols (fun j ->
            List.fold_left ( + ) 0
              (List.mapi (fun i r -> c.(i) * r.(j)) rows))
      in
      let rank vs = St.rank (List.map sparse vs) in
      rank rows = rank (rows @ List.map combine combos)
      && rank (rows @ unit_rows cols) = cols)

let () =
  Alcotest.run "effect"
    [
      ( "ir semantics",
        [
          Alcotest.test_case "eval and holds" `Quick test_eval_holds;
          Alcotest.test_case "ops order" `Quick test_apply_ops_order;
          Alcotest.test_case "pick outcomes" `Quick test_outcomes_pick;
          Alcotest.test_case "pick branches fork independently" `Quick
            test_outcomes_pick_independent;
          Alcotest.test_case "outcomes order" `Quick test_outcomes_order;
          Alcotest.test_case "outcomes cap boundary" `Quick test_outcomes_cap;
          Alcotest.test_case "static reads/writes" `Quick
            test_static_reads_writes;
          QCheck_alcotest.to_alcotest prop_closures_match_interpreter;
        ] );
      ( "Effect.apply runs",
        [
          Alcotest.test_case "branching run pinned" `Quick
            test_branching_run_pinned;
          Alcotest.test_case "cascade nodes linear" `Quick
            test_cascade_nodes_linear;
        ] );
      ( "A014",
        [ Alcotest.test_case "dead branch" `Quick test_a014_dead_branch ] );
      ( "A015",
        [
          Alcotest.test_case "negative-capable delta" `Quick
            test_a015_negative_capable;
        ] );
      ( "exact laws",
        [
          Alcotest.test_case "basis law proven symbolically" `Quick
            test_law_in_basis;
          Alcotest.test_case "proven symbolically" `Quick
            test_law_proven_symbolically;
          Alcotest.test_case "join drops disagreeing places" `Quick
            test_law_through_join_unproven;
          QCheck_alcotest.to_alcotest prop_case_drifts_sound;
        ] );
      ( "ir dump",
        [
          Alcotest.test_case "deterministic" `Quick
            test_ir_dump_deterministic;
        ] );
      ( "rank",
        [
          Alcotest.test_case "unit diagonal" `Quick test_rank_unit_diagonal;
          QCheck_alcotest.to_alcotest prop_rank_combinations;
        ] );
    ]
