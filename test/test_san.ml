(* Tests for the san library: markings, journalling, builder validation,
   model queries, and DOT export. *)

module E = San.Effect

let build_pair () =
  let b = San.Model.Builder.create "m" in
  let p = San.Model.Builder.int_place b ~init:2 "tokens" in
  let q = San.Model.Builder.float_place b ~init:1.5 "level" in
  (b, p, q)

let test_initial_marking () =
  let b, p, q = build_pair () in
  San.Model.Builder.instantaneous_ir b ~name:"noop" ~guard:(E.Const false)
    E.Skip;
  let model = San.Model.Builder.build b in
  let m = San.Model.initial_marking model in
  Alcotest.(check int) "int init" 2 (San.Marking.get m p);
  Alcotest.(check (float 0.0)) "float init" 1.5 (San.Marking.fget m q);
  Alcotest.(check (list int)) "journal cleared" [] (San.Marking.journal m)

let test_marking_journal () =
  let b, p, q = build_pair () in
  San.Model.Builder.instantaneous_ir b ~name:"noop" ~guard:(E.Const false)
    E.Skip;
  let model = San.Model.Builder.build b in
  let m = San.Model.initial_marking model in
  San.Marking.set m p 2;
  Alcotest.(check (list int)) "no-op write not journalled" []
    (San.Marking.journal m);
  San.Marking.set m p 3;
  San.Marking.fset m q 2.5;
  San.Marking.set m p 4;
  let journal = List.sort compare (San.Marking.journal m) in
  Alcotest.(check (list int))
    "changed places journalled once"
    (List.sort compare [ San.Place.uid p; San.Place.fuid q ])
    journal;
  San.Marking.clear_journal m;
  Alcotest.(check (list int)) "journal clears" [] (San.Marking.journal m)

let test_marking_negative_rejected () =
  let b, p, _ = build_pair () in
  San.Model.Builder.instantaneous_ir b ~name:"noop" ~guard:(E.Const false)
    E.Skip;
  let model = San.Model.Builder.build b in
  let m = San.Model.initial_marking model in
  (match San.Marking.add m p (-2) with
  | () -> ()
  | exception Invalid_argument _ -> Alcotest.fail "decrement to 0 rejected");
  Alcotest.(check bool) "negative write raises" true
    (match San.Marking.add m p (-1) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_marking_copy_independent () =
  let b, p, q = build_pair () in
  San.Model.Builder.instantaneous_ir b ~name:"noop" ~guard:(E.Const false)
    E.Skip;
  let model = San.Model.Builder.build b in
  let m = San.Model.initial_marking model in
  let m' = San.Marking.copy m in
  San.Marking.set m' p 9;
  San.Marking.fadd m' q 1.0;
  Alcotest.(check int) "original int unchanged" 2 (San.Marking.get m p);
  Alcotest.(check (float 0.0)) "original float unchanged" 1.5
    (San.Marking.fget m q);
  Alcotest.(check bool) "markings now differ" false (San.Marking.equal m m')

let test_builder_duplicate_place () =
  let b = San.Model.Builder.create "m" in
  let (_ : San.Place.t) = San.Model.Builder.int_place b "x" in
  Alcotest.(check bool) "duplicate rejected" true
    (match San.Model.Builder.float_place b "x" with
    | (_ : San.Place.fl) -> false
    | exception Invalid_argument _ -> true)

let test_builder_duplicate_activity () =
  let b = San.Model.Builder.create "m" in
  let mk () =
    San.Model.Builder.instantaneous_ir b ~name:"a" ~guard:(E.Const false)
      E.Skip
  in
  mk ();
  Alcotest.(check bool) "duplicate activity rejected" true
    (match mk () with () -> false | exception Invalid_argument _ -> true)

let test_builder_no_cases () =
  let b = San.Model.Builder.create "m" in
  Alcotest.(check bool) "zero cases rejected" true
    (match
       San.Model.Builder.activity_ir b ~name:"a"
         ~timing:San.Activity.Instantaneous ~guard:(E.Const false)
         []
     with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_builder_negative_init () =
  let b = San.Model.Builder.create "m" in
  Alcotest.(check bool) "negative init rejected" true
    (match San.Model.Builder.int_place b ~init:(-1) "x" with
    | (_ : San.Place.t) -> false
    | exception Invalid_argument _ -> true)

let test_model_queries () =
  let b, p, q = build_pair () in
  (* The rate reads [level], the guard [tokens]: [reads] lists both in
     uid order, whatever order they appear in. *)
  San.Model.Builder.timed_exp_rate_ir b ~name:"tick"
    ~rate:(E.FMark q)
    ~guard:(E.Cmp (E.Mark p, E.Gt, E.Int 0))
    E.Skip;
  let model = San.Model.Builder.build b in
  Alcotest.(check int) "place count" 2 (San.Model.n_places model);
  Alcotest.(check bool) "find_place" true
    (San.Place.equal (San.Model.find_place model "tokens") p);
  Alcotest.(check bool) "find_place_opt miss" true
    (San.Model.find_place_opt model "nope" = None);
  Alcotest.(check bool) "float place not an int place" true
    (San.Model.find_place_opt model "level" = None);
  Alcotest.(check bool) "find float place" true
    (San.Model.find_float_place_opt model "level" <> None);
  let act = San.Model.find_activity model "tick" in
  Alcotest.(check string) "activity name" "tick" act.San.Activity.name;
  Alcotest.(check bool) "all exponential" true (San.Model.all_exponential model);
  Alcotest.(check (list string)) "derived reads" [ "tokens"; "level" ]
    (List.map San.Place.any_name act.San.Activity.reads);
  List.iter
    (fun uid ->
      Alcotest.(check (list string)) "dependency index" [ "tick" ]
        (List.map
           (fun (a : San.Activity.t) -> a.name)
           (San.Model.dependents model uid)))
    [ San.Place.uid p; San.Place.fuid q ]

let test_all_exponential_false () =
  let b = San.Model.Builder.create "m" in
  San.Model.Builder.timed_dist_ir b ~name:"det"
    ~dist:San.(Activity.DDet (Effect.RConst 1.0))
    ~guard:(E.Const true)
    [ San.Activity.make_case San.Effect.Skip ];
  let model = San.Model.Builder.build b in
  Alcotest.(check bool) "deterministic detected" false
    (San.Model.all_exponential model)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  nl = 0 || scan 0

let test_dot_export () =
  let b, p, _ = build_pair () in
  San.Model.Builder.timed_exp_rate_ir b ~name:"tick" ~rate:(E.RConst 1.0)
    ~guard:(E.Const true)
    E.Skip;
  San.Model.Builder.instantaneous_ir b ~name:"instant"
    ~guard:(E.Cmp (E.Mark p, E.Lt, E.Int 0))
    E.Skip;
  let model = San.Model.Builder.build b in
  let dot =
    Format.asprintf "%a" (fun ppf -> San.Dot.to_dot ppf) model
  in
  List.iter
    (fun needle ->
      if not (contains ~needle dot) then
        Alcotest.failf "dot output missing %S" needle)
    [ "digraph"; "tokens"; "level"; "tick"; "instant";
      "\"p_tokens\" -> \"a_instant\"" ];
  (* An edge is a derived read: [tick] reads nothing. *)
  if contains ~needle:"-> \"a_tick\"" dot then
    Alcotest.fail "dot output has an edge into tick, which reads nothing";
  (* Firing-heat overlay: counted activities get a pen width and tooltip,
     uncounted ones render thin and grey. *)
  let heated =
    Format.asprintf "%a"
      (fun ppf -> San.Dot.to_dot ~firings:[ ("tick", 25) ] ppf)
      model
  in
  List.iter
    (fun needle ->
      if not (contains ~needle heated) then
        Alcotest.failf "heated dot output missing %S" needle)
    [ "penwidth=6.00"; "tooltip=\"25 firings\""; "penwidth=0.5 color=gray60" ]

let () =
  Alcotest.run "san"
    [
      ( "marking",
        [
          Alcotest.test_case "initial marking" `Quick test_initial_marking;
          Alcotest.test_case "journal" `Quick test_marking_journal;
          Alcotest.test_case "negative rejected" `Quick
            test_marking_negative_rejected;
          Alcotest.test_case "copy independent" `Quick
            test_marking_copy_independent;
        ] );
      ( "builder",
        [
          Alcotest.test_case "duplicate place" `Quick
            test_builder_duplicate_place;
          Alcotest.test_case "duplicate activity" `Quick
            test_builder_duplicate_activity;
          Alcotest.test_case "no cases" `Quick test_builder_no_cases;
          Alcotest.test_case "negative init" `Quick test_builder_negative_init;
        ] );
      ( "model",
        [
          Alcotest.test_case "queries" `Quick test_model_queries;
          Alcotest.test_case "all_exponential" `Quick
            test_all_exponential_false;
          Alcotest.test_case "dot export" `Quick test_dot_export;
        ] );
    ]
