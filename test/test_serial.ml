(* Tests for the [itua-model/2] serializer (lib/serial): round trips,
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
  let _, doc = Analysis.Check.certificate ~orbits report in
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
    {|{"schema":"itua-model/2","name":"x","places":[%s],"activities":[%s]}|}
    places activities

let act_with_effect eff =
  Printf.sprintf
    {|{"name":"a","timing":{"type":"instantaneous"},"guard":true,"cases":[{"weight":1,"effect":%s}]}|}
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
      {|{"schema":"itua-model/2","places":[],"activities":[]}|},
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
        {|{"name":"a","timing":{"type":"instantaneous"},"cases":[{"weight":1,"effect":"skip"}]}|},
      [ "$.activities[0]"; {|missing field "guard"|} ] );
    ( "bad timing type",
      envelope ""
        {|{"name":"a","timing":{"type":"sometimes"},"guard":true,"cases":[{"weight":1,"effect":"skip"}]}|},
      [ "$.activities[0].timing" ] );
    ( "unknown composition place",
      {|{"schema":"itua-model/2","name":"x","places":[],"activities":[],"composition":{"label":"root","places":["ghost"],"activities":[],"children":[]}}|},
      [ "$.composition"; {|unknown place "ghost"|} ] );
    (* Version 1 stored each activity's wake-ups; /2 derives them, so a
       /1 document with extra wake-ups would load as another model. *)
    ( "version 1 schema",
      {|{"schema":"itua-model/1","name":"x","places":[{"name":"p","kind":"int"}],"activities":[{"name":"a","timing":{"type":"instantaneous"},"guard":false,"reads":["p"],"cases":[{"weight":1,"effect":"skip"}]}]}|},
      [ "$.schema"; "unsupported schema"; {|"itua-model/1"|};
        {|"itua-model/2"|} ] );
  ]

(* --- rebinding a loaded model to the ITUA handles --- *)

let loaded_composition l =
  match l.Serial.composition with
  | Some c -> c
  | None -> Alcotest.fail "composition tree lost"

let test_rebind_golden () =
  let h = Itua.Model.build small_params in
  let l = parse_exn (read_file "../examples/itua.model.json") in
  let r =
    Itua.Model.rebind small_params ~model:l.Serial.model
      ~composition:(loaded_composition l)
  in
  Alcotest.(check bool) "the loaded model" true
    (r.Itua.Model.model == l.Serial.model);
  Alcotest.(check bool) "the built place handles" true
    (r.Itua.Model.apps = h.Itua.Model.apps
    && r.Itua.Model.domains = h.Itua.Model.domains);
  Alcotest.(check string) "same structure" h.Itua.Model.structure
    r.Itua.Model.structure

(* Place order is part of the format: a file whose places come in another
   order loads as a model, but not as the ITUA model of its parameters. *)
let test_rebind_reordered () =
  let _, doc = itua_doc () in
  let kvs = match doc with J.Obj kvs -> kvs | _ -> assert false in
  let first, places =
    match List.assoc "places" kvs with
    | J.Arr (a :: b :: rest) -> (J.member "name" a, J.Arr (b :: a :: rest))
    | _ -> Alcotest.fail "too few places"
  in
  let first =
    match first with Some (J.Str n) -> n | _ -> Alcotest.fail "unnamed place"
  in
  let swapped =
    J.Obj (List.map (fun (k, v) -> (k, if k = "places" then places else v)) kvs)
  in
  let l = parse_exn (J.to_string swapped) in
  match
    Itua.Model.rebind small_params ~model:l.Serial.model
      ~composition:(loaded_composition l)
  with
  | _ -> Alcotest.fail "reordered places accepted"
  | exception Invalid_argument msg ->
      if not (contains msg (Printf.sprintf "%S" first)) then
        Alcotest.failf "%S does not name the first place %S" msg first

(* --- hostile inputs: every mutation is a located error --- *)

type step = K of string | I of int

let render path =
  List.fold_left
    (fun at -> function K k -> J.key at k | I i -> J.idx at i)
    "$" path

(* Every non-root node of a tree — its path, the node and its parent —
   in document order. *)
let nodes doc =
  let rec go rev_path parent j acc =
    children rev_path j ((List.rev rev_path, j, parent) :: acc)
  and children rev_path j acc =
    match j with
    | J.Obj kvs ->
        List.fold_left (fun acc (k, v) -> go (K k :: rev_path) j v acc) acc kvs
    | J.Arr l ->
        snd
          (List.fold_left
             (fun (i, acc) v -> (i + 1, go (I i :: rev_path) j v acc))
             (0, acc) l)
    | _ -> acc
  in
  List.rev (children [] doc [])

(* [replace path f j] puts [f node] in place of the node at [path]. *)
let rec replace path f j =
  match (path, j) with
  | [], _ -> f j
  | K k :: rest, J.Obj kvs ->
      J.Obj
        (List.map
           (fun (k', v) -> (k', if k' = k then replace rest f v else v))
           kvs)
  | I i :: rest, J.Arr l ->
      J.Arr (List.mapi (fun i' v -> if i' = i then replace rest f v else v) l)
  | _ -> invalid_arg "replace: no such path"

(* A value of another JSON type, which no decoder accepts in its place. *)
let swap = function
  | J.Num _ | J.Null -> J.Str "x"
  | J.Str _ | J.Bool _ -> J.Num 1.0
  | J.Arr _ -> J.Obj []
  | J.Obj _ -> J.Arr []

let last_key path = match List.rev path with K k :: _ -> k | _ -> ""

(* The mutations of [doc] at the given [nodes], each with its path: the
   node swapped for another type, each field of an object that is not
   [optional] dropped, and 1.5 and 1e30 at an integer position. *)
let mutations ~optional ~int_at doc nodes =
  nodes
  |> List.concat_map (fun ((path, j, _) as node) ->
         let at = render path in
         let set v = (at, replace path (fun _ -> v) doc) in
         let dropped =
           match j with
           | J.Obj kvs ->
               List.filter_map
                 (fun (k, _) ->
                   if List.mem k optional then None
                   else Some (set (J.Obj (List.remove_assoc k kvs))))
                 kvs
           | _ -> []
         in
         let ints =
           if int_at node then [ set (J.Num 1.5); set (J.Num 1e30) ] else []
         in
         (set (swap j) :: dropped) @ ints)

let expect_located what decode cases =
  List.iter
    (fun (at, j) ->
      match decode j with
      | Ok _ -> Alcotest.failf "%s: mutation at %s decoded" what at
      | Error e ->
          if not (String.starts_with ~prefix:"$." e) then
            Alcotest.failf "%s: mutation at %s: unlocated error %S" what at e
      | exception ex ->
          Alcotest.failf "%s: mutation at %s raised %s" what at
            (Printexc.to_string ex))
    cases;
  Alcotest.(check bool) (what ^ ": mutations tried") true (cases <> [])

(* The first node of each shape — the key or tuple position that reaches
   it, its JSON type, and its parent's operator tag — so that every kind
   of node of a large file is mutated once. *)
let one_per_shape nodes =
  let shape (path, j, parent) =
    let tag =
      match parent with
      | J.Arr (J.Str t :: _) when String.length t <= 6 -> t
      | _ -> ""
    in
    let step =
      match List.rev path with
      | K k :: _ -> k
      | I i :: _ -> if tag = "" then "[]" else string_of_int i
      | [] -> ""
    in
    let kind =
      match j with
      | J.Obj _ -> "object"
      | J.Arr _ -> "array"
      | J.Str _ -> "string"
      | J.Num x -> if Float.is_integer x then "integer" else "number"
      | J.Bool _ -> "boolean"
      | J.Null -> "null"
    in
    (step, kind, tag)
  in
  let seen = Hashtbl.create 256 in
  List.filter
    (fun n ->
      let k = shape n in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    nodes

let golden_doc () =
  match J.of_string (read_file "../examples/itua.model.json") with
  | Ok j -> j
  | Error e -> Alcotest.failf "golden does not parse: %s" e

(* Integer positions of a model file: int place inits, Rep counts,
   Erlang stages, and the operands of integer comparisons and ops. *)
let model_int_at (path, j, parent) =
  match (j, parent) with
  | J.Num _, J.Obj kvs when last_key path = "init" ->
      List.assoc_opt "kind" kvs = Some (J.Str "int")
  | J.Num _, _ when List.mem (last_key path) [ "rep"; "k" ] -> true
  | J.Num _, J.Arr [ J.Str ("set" | "inc"); _; _ ] -> true
  | J.Num _, J.Arr [ J.Str ("=" | "!=" | "<" | "<=" | ">" | ">="); _; _ ] ->
      true
  | _ -> false

let test_hostile_model () =
  let doc =
    match golden_doc () with
    | J.Obj kvs -> J.Obj (List.remove_assoc "annotations" kvs)
    | _ -> Alcotest.fail "golden is not an object"
  in
  expect_located "Serial.parse"
    (fun j -> Serial.parse (J.to_string j))
    (mutations
       ~optional:[ "init"; "bound"; "rep"; "params"; "else" ]
       ~int_at:model_int_at doc
       (one_per_shape (nodes doc)))

(* Well-typed constants out of range would load and then raise only at
   their first sample; the builder must reject each with a located
   error. Activity 1 is an exponential with two constant-weight cases. *)
let test_hostile_constants () =
  let doc = golden_doc () in
  let act = [ K "activities"; I 1 ] in
  let mutate path v = replace (act @ path) (fun _ -> v) doc in
  List.iter
    (fun (what, j) ->
      match Serial.of_json j with
      | Ok _ -> Alcotest.failf "%s loaded" what
      | Error e ->
          if not (String.starts_with ~prefix:"$.activities[1]" e) then
            Alcotest.failf "%s: error %S is not located at the activity" what
              e)
    [
      ("rate -0.8", mutate [ K "timing"; K "dist"; K "rate" ] (J.Num (-0.8)));
      ("weight -1", mutate [ K "cases"; I 0; K "weight" ] (J.Num (-1.0)));
      ( "erlang k 0",
        mutate [ K "timing"; K "dist" ]
          (J.Obj
             [
               ("kind", J.Str "erlang"); ("k", J.Num 0.0); ("rate", J.Num 1.0);
             ]) );
    ]

(* Byte-level fuzzing of the committed model files: a flipped byte, a
   spliced-in run of bytes from another file, or a truncation. The JSON
   reader must never raise, and the model decoder must turn whatever
   parses into a model or a located error. *)
let prop_byte_mutations =
  let docs =
    lazy
      (Array.of_list
         (List.map read_file
            ("../examples/itua.model.json"
            :: List.map
                 (fun (name, _) -> Printf.sprintf "golden/%s.model.json" name)
                 fixtures)))
  in
  let mutate (d, kind, a, b, len, byte) =
    let docs = Lazy.force docs in
    let s = docs.(d mod Array.length docs) in
    let n = String.length s in
    let a = a mod n in
    match kind mod 3 with
    | 0 ->
        String.mapi
          (fun i c ->
            if i = a then Char.chr (Char.code c lxor (1 + (byte mod 255)))
            else c)
          s
    | 1 ->
        (* [len] bytes of a file replace [byte mod 8] bytes at [a]. *)
        let t = docs.(b mod Array.length docs) in
        let b = b mod String.length t in
        let resume = min n (a + (byte mod 8)) in
        String.sub s 0 a
        ^ String.sub t b (min len (String.length t - b))
        ^ String.sub s resume (n - resume)
    | _ -> String.sub s 0 a
  in
  QCheck2.Test.make ~name:"byte mutations of the model goldens"
    ~count:3000
    ~print:(fun (d, kind, a, b, len, byte) ->
      Printf.sprintf "doc %d kind %d at %d from %d len %d byte %d" d kind a b
        len byte)
    QCheck2.Gen.(
      tup6 nat (int_bound 2) nat nat (int_bound 64) (int_bound 255))
    (fun m ->
      let text = mutate m in
      match J.of_string text with
      | exception ex ->
          QCheck2.Test.fail_reportf "Report.Json.of_string raised %s"
            (Printexc.to_string ex)
      | Error _ -> true
      | Ok j -> (
          match Serial.of_json j with
          | Ok _ -> true
          | Error e when String.starts_with ~prefix:"$" e -> true
          | Error e -> QCheck2.Test.fail_reportf "unlocated error %S" e
          | exception ex ->
              QCheck2.Test.fail_reportf "Serial.of_json raised %s"
                (Printexc.to_string ex)))

let test_hostile_params () =
  let params =
    match J.member "annotations" (golden_doc ()) with
    | Some a -> Option.get (J.member "params" a)
    | None -> Alcotest.fail "golden carries no annotations"
  in
  let int_fields =
    [ "num_domains"; "hosts_per_domain"; "num_apps"; "num_reps";
      "ids_latency_stages" ]
  in
  expect_located "Itua.Params.of_json" Itua.Params.of_json
    (mutations ~optional:[ "host_rate_multipliers" ]
       ~int_at:(fun (path, _, _) -> List.mem (last_key path) int_fields)
       params (nodes params));
  match
    Itua.Params.of_json
      (replace [ K "num_domains" ] (fun _ -> J.Num 1e20) params)
  with
  | Error e ->
      Alcotest.(check bool) (e ^ " names the field") true
        (String.starts_with ~prefix:"$.num_domains: expected an integer" e)
  | Ok _ -> Alcotest.fail "num_domains 1e20 accepted"

let recorded_trajectory () =
  let h = Itua.Model.build small_params in
  let spec =
    Sim.Runner.spec ~model:h.Itua.Model.model ~horizon:5.0
      [ Itua.Measures.unreliability h ~until:5.0 ]
  in
  let sink =
    Sim.Trajectory.sink ~k:2 ~predicate:(Itua.Forensics.failed_now h)
      ~model:h.Itua.Model.model ()
  in
  let (_ : Sim.Runner.result list) =
    Sim.Runner.run ~domains:1 ~seed:3L ~reps:40 ~record:sink spec
  in
  match Sim.Trajectory.matching sink with
  | t :: _ -> (t, Sim.Trajectory.occupancy sink)
  | [] -> Alcotest.fail "no failing run recorded"

let test_hostile_trajectory () =
  let t, occupancy = recorded_trajectory () in
  let int_at (path, _, _) =
    List.mem (last_key path) [ "rep"; "events"; "case"; "hit_runs" ]
  in
  let doc = Sim.Trajectory.to_json t in
  Alcotest.(check bool) "the trajectory has steps" true (t.steps <> []);
  expect_located "Sim.Trajectory.of_json" Sim.Trajectory.of_json
    (mutations ~optional:[] ~int_at doc (nodes doc));
  expect_located "Sim.Trajectory.occupancy_of_json"
    (Sim.Trajectory.occupancy_of_json ~at:"$.occupancy")
    (let doc = Sim.Trajectory.occupancy_to_json occupancy in
     mutations ~optional:[] ~int_at doc (nodes doc))

(* The header line of a --record-failures file: each damaged field
   fails at its path, and a line without "schema" is a headerless file. *)
let test_hostile_trajectory_header () =
  let t, occupancy = recorded_trajectory () in
  let header =
    J.Obj
      [
        ("schema", J.Str "itua-trajectories/1");
        ("reps", J.int 40);
        ("matched_runs", J.int 3);
        ("occupancy", Sim.Trajectory.occupancy_to_json occupancy);
      ]
  in
  (match Sim.Trajectory.header_of_json header with
  | Ok (Some h) ->
      Alcotest.(check (pair int int)) "reps, matched_runs" (40, 3)
        (h.reps, h.matched_runs);
      Alcotest.(check (option int)) "occupancy rows"
        (Some (List.length occupancy))
        (Option.map List.length h.occupancy)
  | Ok None -> Alcotest.fail "header taken as a trajectory"
  | Error e -> Alcotest.failf "valid header rejected: %s" e);
  (match Sim.Trajectory.header_of_json (Sim.Trajectory.to_json t) with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "trajectory taken as a header"
  | Error e -> Alcotest.failf "headerless line rejected: %s" e);
  List.iter
    (fun (key, v, prefix) ->
      match
        Sim.Trajectory.header_of_json (replace [ K key ] (fun _ -> v) header)
      with
      | Error e ->
          Alcotest.(check bool) (e ^ " names " ^ prefix) true
            (String.starts_with ~prefix e)
      | Ok _ -> Alcotest.failf "%s = %s accepted" key (J.to_string v))
    [
      ("reps", J.Str "fifty", "$.reps: expected an integer");
      ("matched_runs", J.Num 1.5, "$.matched_runs: expected an integer");
      ("schema", J.Num 7.0, "$.schema: expected a string");
      ("schema", J.Str "itua-trajectories/2", "$.schema: unknown schema");
      ("occupancy", J.Arr [ J.Num 1.0 ], "$.occupancy[0]: expected");
    ]

(* --- structural diff --- *)

let tiny ?(extra = false) ~init () =
  let b = B.create "tiny" in
  let p = B.int_place b ~init "p" in
  B.timed_exp_rate_ir b ~name:"go" ~rate:(E.RConst 1.0)
    ~guard:E.(Cmp (Mark p, Gt, Int 0))
    E.(Ops [ Inc (p, Int (-1)) ]);
  if extra then
    B.timed_exp_rate_ir b ~name:"reset" ~rate:(E.RConst 0.5)
      ~guard:E.(Cmp (Mark p, Eq, Int 0))
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
            ~max_states:2000 model))
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
    (E.Ops [ E.Set (p, E.Int 0) ]);
  let m = B.build b in
  match Serial.to_json m with
  | exception Serial.Unportable msg ->
      Alcotest.(check bool) "names the offending activity" true
        (contains msg "opaque_rate")
  | _ -> Alcotest.fail "expected Unportable for a closure-built activity"

(* Several closure timings must surface in ONE aggregated error naming
   every offending activity — not just the first blocker hit during
   emission. *)
let test_unportable_aggregates () =
  let b = B.create "closures" in
  let p = B.int_place b ~init:1 "p" in
  let q = B.int_place b ~init:0 "q" in
  (* Two offenders, each with a closure-only timing. *)
  B.timed_exp_ir b ~name:"bad_rate"
    ~rate:(fun _ -> 1.0)
    ~guard:(E.Cmp (E.Mark p, E.Gt, E.Int 0))
    (E.Ops [ E.Set (p, E.Int 0) ]);
  B.timed_exp_ir b ~name:"bad_timing"
    ~rate:(fun _ -> 2.0)
    ~guard:(E.Cmp (E.Mark q, E.Eq, E.Int 0))
    (E.Ops [ E.Set (q, E.Int 1) ]);
  (* Fully declarative — must NOT be blamed. *)
  B.timed_exp_rate_ir b ~name:"fine"
    ~rate:(E.RConst 0.5)
    ~guard:(E.Cmp (E.Mark q, E.Eq, E.Int 1))
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
      ( "rebind",
        [
          Alcotest.test_case "golden" `Quick test_rebind_golden;
          Alcotest.test_case "reordered places rejected" `Quick
            test_rebind_reordered;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "model file" `Quick test_hostile_model;
          Alcotest.test_case "params annotation" `Quick test_hostile_params;
          Alcotest.test_case "trajectory" `Quick test_hostile_trajectory;
          Alcotest.test_case "trajectory header" `Quick
            test_hostile_trajectory_header;
          Alcotest.test_case "out-of-range constants" `Quick
            test_hostile_constants;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20030622 |])
            prop_byte_mutations;
        ] );
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
