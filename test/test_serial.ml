(* Tests for the [itua-model/1] serializer (lib/serial): round trips,
   committed golden files, malformed-input corpus, structural diff, and
   bit-identity of the loaded model (trajectories and analysis
   certificates) against the in-code one. *)

module B = San.Model.Builder
module E = San.Effect
module M = San.Marking
module J = Report.Json
module T = Test_models

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_exn s =
  match Serial.parse s with
  | Ok l -> l
  | Error e -> Alcotest.failf "parse failed: %s" e

(* The fixture parameters here must match tools/gen_golden.ml, which
   writes the committed test/golden/*.model.json files. *)
let fixtures =
  [
    ("two_state", fun () -> (T.two_state ~lambda:0.2 ~mu:1.0).T.ts_model);
    ("mm1k", fun () -> (T.mm1k ~lambda:0.8 ~mu:1.0 ~k:5).T.q_model);
    ("tandem", fun () -> (T.tandem ~r1:1.0 ~r2:0.5).T.td_model);
    ("gong", fun () -> (T.gong ()).T.g_model);
  ]

(* Small ITUA configuration; must match tools/gen_golden.ml and the CI
   golden gate (itua_sim save --domains 2 --hosts-per-domain 2 --apps 2
   --replicas 2). *)
let small_params =
  {
    Itua.Params.default with
    num_domains = 2;
    hosts_per_domain = 2;
    num_apps = 2;
    num_reps = 2;
  }

let itua_doc () =
  let h = Itua.Model.build small_params in
  ( h,
    Serial.to_json
      ~composition:h.Itua.Model.composition
      ~annotations:[ ("params", Itua.Params.to_json small_params) ]
      h.Itua.Model.model )

(* --- round trips: parse after emit is the identity, byte for byte --- *)

let test_fixture_roundtrip (name, make) () =
  let m = make () in
  let s1 = Serial.emit m in
  let l = parse_exn s1 in
  let s2 = Serial.emit l.Serial.model in
  Alcotest.(check string) (name ^ ": emit/parse/emit fixpoint") s1 s2;
  Alcotest.(check string)
    "model name preserved" (San.Model.name m)
    (San.Model.name l.Serial.model)

let test_itua_roundtrip () =
  let h, doc = itua_doc () in
  let s1 = J.to_string doc in
  let l = parse_exn s1 in
  let comp =
    match l.Serial.composition with
    | Some c -> c
    | None -> Alcotest.fail "composition tree lost"
  in
  let s2 =
    Serial.emit ~composition:comp ~annotations:l.Serial.annotations
      l.Serial.model
  in
  Alcotest.(check string) "itua: emit/parse/emit fixpoint" s1 s2;
  Alcotest.(check string) "composition tree preserved"
    (Compose.render_info h.Itua.Model.composition)
    (Compose.render_info comp)

let test_bounds_annotations_roundtrip () =
  let t = T.two_state ~lambda:0.2 ~mu:1.0 in
  let bounds = [ (San.Place.name t.T.up, 1) ] in
  let annotations = [ ("n", J.int 3); ("note", J.Str "hello") ] in
  let doc = Serial.to_json ~bounds ~annotations t.T.ts_model in
  let l = parse_exn (J.to_string doc) in
  Alcotest.(check (list (pair string int))) "bounds survive" bounds
    l.Serial.bounds;
  (match l.Serial.annotations with
  | [ ("n", J.Num 3.0); ("note", J.Str "hello") ] -> ()
  | _ -> Alcotest.fail "annotations not preserved verbatim");
  let s2 =
    Serial.emit ~bounds:l.Serial.bounds ~annotations:l.Serial.annotations
      l.Serial.model
  in
  Alcotest.(check string) "fixpoint with bounds and annotations"
    (J.to_string doc) s2

(* --- golden files: emission is byte-stable across sessions --- *)

let test_fixture_golden (name, make) () =
  let expected = read_file (Filename.concat "golden" (name ^ ".model.json")) in
  Alcotest.(check string)
    (name ^ ": matches committed golden")
    expected
    (Serial.emit (make ()) ^ "\n")

let test_itua_golden () =
  let _, doc = itua_doc () in
  let expected = read_file "../examples/itua.model.json" in
  Alcotest.(check string) "matches committed examples/itua.model.json"
    expected
    (J.to_string doc ^ "\n")

(* The certificate [itua_sim check --strict --invariants --symmetry
   --json] writes for the small configuration; must match
   tools/gen_golden.ml. *)
let test_itua_check_golden () =
  let h = Itua.Model.build small_params in
  let report =
    Analysis.Check.run ~composition:h.Itua.Model.composition
      ~laws:(Itua.Invariant.conservation_laws h)
      h.Itua.Model.model
  in
  let orbits =
    Analysis.Orbit.analyse h.Itua.Model.model h.Itua.Model.composition
  in
  let report =
    {
      report with
      Analysis.Check.diagnostics =
        List.sort Analysis.Diagnostic.compare
          (report.Analysis.Check.diagnostics @ Analysis.Orbit.diagnostics orbits);
    }
  in
  let doc =
    match Analysis.Check.to_json report with
    | J.Obj fields ->
        J.Obj (fields @ [ ("symmetry", Analysis.Orbit.to_json orbits) ])
    | _ -> Alcotest.fail "check report is not a JSON object"
  in
  Alcotest.(check string) "matches committed golden/itua_small.check.json"
    (read_file "golden/itua_small.check.json")
    (J.to_string doc ^ "\n")

(* --- malformed inputs: precise error locations --- *)

let expect_error name s subs () =
  match Serial.parse s with
  | Ok _ -> Alcotest.failf "%s: parse unexpectedly succeeded" name
  | Error e ->
      List.iter
        (fun sub ->
          if not (contains e sub) then
            Alcotest.failf "%s: error %S lacks %S" name e sub)
        subs

let envelope places activities =
  Printf.sprintf
    {|{"schema":"itua-model/1","name":"x","places":[%s],"activities":[%s]}|}
    places activities

let act_with_effect eff =
  Printf.sprintf
    {|{"name":"a","timing":{"type":"instantaneous"},"guard":true,"reads":[],"cases":[{"weight":1,"effect":%s}]}|}
    eff

let malformed =
  [
    ( "syntax error",
      "{",
      [ "offset" ] );
    ( "unknown schema",
      {|{"schema":"itua-model/99","name":"x","places":[],"activities":[]}|},
      [ "$.schema"; "unsupported schema" ] );
    ( "missing name",
      {|{"schema":"itua-model/1","places":[],"activities":[]}|},
      [ {|missing field "name"|} ] );
    ( "bad place kind",
      envelope {|{"name":"p","kind":"complex"}|} "",
      [ "$.places[0].kind"; "unknown place kind" ] );
    ( "duplicate place",
      envelope {|{"name":"p","kind":"int"},{"name":"p","kind":"int"}|} "",
      [ "$.places[1]"; "duplicate" ] );
    ( "unknown place in op",
      envelope {|{"name":"p","kind":"int"}|}
        (act_with_effect {|{"ops":[["set","q",1]]}|}),
      [ "$.activities[0].cases[0].effect.ops[0]"; {|unknown place "q"|} ] );
    ( "float op on int place",
      envelope {|{"name":"p","kind":"int"}|}
        (act_with_effect {|{"ops":[["fset","p",1.5]]}|}),
      [ "is an int place, expected a float place" ] );
    ( "missing guard",
      envelope {|{"name":"p","kind":"int"}|}
        {|{"name":"a","timing":{"type":"instantaneous"},"reads":[],"cases":[{"weight":1,"effect":"skip"}]}|},
      [ "$.activities[0]"; {|missing field "guard"|} ] );
    ( "bad timing type",
      envelope ""
        {|{"name":"a","timing":{"type":"sometimes"},"guard":true,"reads":[],"cases":[{"weight":1,"effect":"skip"}]}|},
      [ "$.activities[0].timing" ] );
    ( "unknown composition place",
      {|{"schema":"itua-model/1","name":"x","places":[],"activities":[],"composition":{"label":"root","places":["ghost"],"activities":[],"children":[]}}|},
      [ "$.composition"; {|unknown place "ghost"|} ] );
  ]

(* --- structural diff --- *)

let tiny ?(extra = false) ~init () =
  let b = B.create "tiny" in
  let p = B.int_place b ~init "p" in
  B.timed_exp_rate_ir b ~name:"go" ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark p, Gt, Int 0))
    ~reads:[ San.Place.P p ]
    E.(Ops [ Inc (p, Int (-1)) ]);
  if extra then
    B.timed_exp_rate_ir b ~name:"reset" ~rate:(E.RConst 0.5)
      ~guard:E.(Cmp (Mark p, Eq, Int 0))
      ~reads:[ San.Place.P p ]
      E.(Ops [ Set (p, Int init) ]);
  B.build b

let test_diff_self_empty () =
  let _, doc = itua_doc () in
  Alcotest.(check int) "self diff is empty" 0
    (List.length (Serial.Diff.diff doc doc))

let test_diff_init_change () =
  let a = Serial.to_json (tiny ~init:1 ()) in
  let b = Serial.to_json (tiny ~init:2 ()) in
  let entries = Serial.Diff.diff a b in
  Alcotest.(check bool) "detected" true (entries <> []);
  Alcotest.(check bool) "names the place field" true
    (List.exists
       (fun e ->
         contains e.Serial.Diff.at {|places["p"].init|}
         && contains e.Serial.Diff.change "1 -> 2")
       entries)

let test_diff_rate_change () =
  let a = Serial.to_json (T.two_state ~lambda:0.2 ~mu:1.0).T.ts_model in
  let b = Serial.to_json (T.two_state ~lambda:0.3 ~mu:1.0).T.ts_model in
  let entries = Serial.Diff.diff a b in
  Alcotest.(check bool) "only the rate differs" true
    (entries <> []
    && List.for_all
         (fun e -> contains e.Serial.Diff.at {|activities["fail"]|})
         entries)

let test_diff_removed_activity () =
  let a = Serial.to_json (tiny ~extra:true ~init:1 ()) in
  let b = Serial.to_json (tiny ~init:1 ()) in
  let entries = Serial.Diff.diff a b in
  Alcotest.(check bool) "reports the removal by name" true
    (List.exists
       (fun e ->
         contains e.Serial.Diff.at {|activities["reset"]|}
         && contains e.Serial.Diff.change "removed")
       entries)

(* --- bit-identity: the loaded model is the in-code model --- *)

let trajectory ~horizon model =
  let events = ref [] in
  let observer =
    {
      Sim.Observer.nop with
      on_fire =
        (fun t a case m ->
          events :=
            (t, a.San.Activity.name, case, M.int_snapshot m, M.float_snapshot m)
            :: !events);
    }
  in
  let config = Sim.Executor.config ~horizon () in
  let out =
    Sim.Executor.run ~model ~config
      ~stream:(Prng.Stream.create ~seed:42L)
      ~observer ()
  in
  (List.rev !events, out.Sim.Executor.events, out.Sim.Executor.final)

let test_loaded_trajectory_bit_identical () =
  let h, doc = itua_doc () in
  let l = parse_exn (J.to_string doc) in
  let ev_a, n_a, fin_a = trajectory ~horizon:5.0 h.Itua.Model.model in
  let ev_b, n_b, fin_b = trajectory ~horizon:5.0 l.Serial.model in
  Alcotest.(check int) "same event count" n_a n_b;
  Alcotest.(check bool) "some events fired" true (n_a > 0);
  Alcotest.(check bool) "identical event sequence" true (ev_a = ev_b);
  Alcotest.(check bool) "identical final marking" true (M.equal fin_a fin_b)

let test_loaded_certificate_identical () =
  let h, doc = itua_doc () in
  let l = parse_exn (J.to_string doc) in
  let comp =
    match l.Serial.composition with
    | Some c -> c
    | None -> Alcotest.fail "composition tree lost"
  in
  let cert ~composition model =
    J.to_string
      (Analysis.Check.to_json
         (Analysis.Check.run ~composition ~runs:20 ~horizon:1.0
            ~max_states:2000 ~seed:7L model))
  in
  Alcotest.(check string) "identical analysis certificate"
    (cert ~composition:h.Itua.Model.composition h.Itua.Model.model)
    (cert ~composition:comp l.Serial.model)

(* --- portability gate --- *)

let test_unportable_closure () =
  let b = B.create "closure" in
  let p = B.int_place b ~init:1 "p" in
  B.timed_exp_ir b ~name:"opaque_rate"
    ~rate:(fun _ -> 1.0)
    ~guard:(E.Cmp (E.Mark p, E.Gt, E.Int 0))
    ~reads:[ San.Place.P p ]
    (E.Ops [ E.Set (p, E.Int 0) ]);
  let m = B.build b in
  match Serial.to_json m with
  | exception Serial.Unportable msg ->
      Alcotest.(check bool) "names the offending activity" true
        (contains msg "opaque_rate")
  | _ -> Alcotest.fail "expected Unportable for a closure-built activity"

(* Several closure escapes of different kinds must surface in ONE
   aggregated error naming every offending activity with its reasons —
   not just the first blocker hit during emission. *)
let test_unportable_aggregates () =
  let b = B.create "closures" in
  let p = B.int_place b ~init:1 "p" in
  let q = B.int_place b ~init:0 "q" in
  (* Offender 1: closure rate and closure case weights. *)
  B.timed_exp_cases_ir b ~name:"bad_rate"
    ~rate:(fun _ -> 1.0)
    ~guard:(E.Cmp (E.Mark p, E.Gt, E.Int 0))
    ~reads:[ San.Place.P p ]
    [ (0.5, E.Ops [ E.Set (p, E.Int 0) ]); (0.5, E.Skip) ];
  (* Offender 2: closure-only timing, nothing else. *)
  B.timed_exp_ir b ~name:"bad_timing"
    ~rate:(fun _ -> 2.0)
    ~guard:(E.Cmp (E.Mark q, E.Eq, E.Int 0))
    ~reads:[ San.Place.P q ]
    (E.Ops [ E.Set (q, E.Int 1) ]);
  (* Fully declarative — must NOT be blamed. *)
  B.timed_exp_rate_ir b ~name:"fine"
    ~rate:(E.RConst 0.5)
    ~guard:(E.Cmp (E.Mark q, E.Eq, E.Int 1))
    ~reads:[ San.Place.P q ]
    (E.Ops [ E.Set (q, E.Int 0) ]);
  let m = B.build b in
  match Serial.to_json m with
  | exception Serial.Unportable msg ->
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "message mentions %S" sub)
            true (contains msg sub))
        [
          "2 unportable activities";
          "bad_rate";
          "bad_timing";
          "closure weight of case 0";
          "closure weight of case 1";
          "closure-only timing distribution";
        ];
      Alcotest.(check bool) "portable activity not blamed" false
        (contains msg "fine")
  | _ -> Alcotest.fail "expected aggregated Unportable"

let () =
  Alcotest.run "serial"
    [
      ( "roundtrip",
        List.map
          (fun (name, make) ->
            Alcotest.test_case name `Quick
              (test_fixture_roundtrip (name, make)))
          fixtures
        @ [
            Alcotest.test_case "itua small" `Quick test_itua_roundtrip;
            Alcotest.test_case "bounds and annotations" `Quick
              test_bounds_annotations_roundtrip;
          ] );
      ( "golden",
        List.map
          (fun (name, make) ->
            Alcotest.test_case name `Quick (test_fixture_golden (name, make)))
          fixtures
        @ [
            Alcotest.test_case "itua small" `Quick test_itua_golden;
            Alcotest.test_case "itua small check" `Quick test_itua_check_golden;
          ] );
      ( "malformed",
        List.map
          (fun (name, s, subs) ->
            Alcotest.test_case name `Quick (expect_error name s subs))
          malformed );
      ( "diff",
        [
          Alcotest.test_case "self diff empty" `Quick test_diff_self_empty;
          Alcotest.test_case "init change" `Quick test_diff_init_change;
          Alcotest.test_case "rate change" `Quick test_diff_rate_change;
          Alcotest.test_case "removed activity" `Quick
            test_diff_removed_activity;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "trajectory" `Quick
            test_loaded_trajectory_bit_identical;
          Alcotest.test_case "analysis certificate" `Quick
            test_loaded_certificate_identical;
        ] );
      ( "portability",
        [
          Alcotest.test_case "closure rejected" `Quick test_unportable_closure;
          Alcotest.test_case "all offenders aggregated" `Quick
            test_unportable_aggregates;
        ] );
    ]
