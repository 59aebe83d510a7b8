(* Tests for the compose library: namespacing, replicate/join structure,
   and sharing via lexical capture. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  nl = 0 || scan 0

let test_namespacing () =
  let b = San.Model.Builder.create "sys" in
  let root = Compose.Ctx.root b "sys" in
  let places =
    Compose.replicate root "node" ~n:3 (fun ctx i ->
        ignore i;
        Compose.Ctx.int_place ctx "tokens")
  in
  let model = San.Model.Builder.build b in
  Alcotest.(check int) "three places" 3 (Array.length (San.Model.places model));
  Array.iteri
    (fun i p ->
      Alcotest.(check string)
        (Printf.sprintf "name %d" i)
        (Printf.sprintf "node[%d].tokens" i)
        (San.Place.name p))
    places

let test_nested_namespacing () =
  let b = San.Model.Builder.create "sys" in
  let root = Compose.Ctx.root b "sys" in
  let nested =
    Compose.replicate root "domain" ~n:2 (fun dom _ ->
        Compose.replicate dom "host" ~n:2 (fun host _ ->
            Compose.Ctx.int_place host "ok"))
  in
  Alcotest.(check string)
    "deep name" "domain[1].host[0].ok"
    (San.Place.name nested.(1).(0))

let test_sharing_by_capture () =
  (* A shared counter place incremented by an activity in each replica:
     replicate-level sharing exactly as in Mobius. *)
  let b = San.Model.Builder.create "sys" in
  let root = Compose.Ctx.root b "sys" in
  let shared = Compose.Ctx.int_place root "total" in
  let (_ : unit array) =
    Compose.replicate root "worker" ~n:4 (fun ctx i ->
        ignore i;
        let started = Compose.Ctx.int_place ctx ~init:1 "pending" in
        San.Model.Builder.instantaneous_ir b
          ~name:(Compose.Ctx.activity ctx "go")
          ~guard:San.Effect.(Cmp (Mark started, Eq, Int 1))
          San.Effect.(Ops [ Set (started, Int 0); Inc (shared, Int 1) ]))
  in
  let model = San.Model.Builder.build b in
  let cfg = Sim.Executor.config ~horizon:1.0 () in
  let outcome =
    Sim.Executor.run ~model ~config:cfg
      ~stream:(Prng.Stream.create ~seed:1L)
      ~observer:Sim.Observer.nop ()
  in
  Alcotest.(check int)
    "all four replicas incremented the shared place" 4
    (San.Marking.get outcome.Sim.Executor.final shared)

let test_join_and_structure () =
  let b = San.Model.Builder.create "sys" in
  let root = Compose.Ctx.root b "itua" in
  let () =
    Compose.join root "apps" (fun apps ->
        let (_ : unit array) =
          Compose.replicate apps "app" ~n:2 (fun app _ ->
              let (_ : San.Place.t array) =
                Compose.replicate app "replica" ~n:3 (fun r _ ->
                    Compose.Ctx.int_place r "corrupt")
              in
              ())
        in
        ())
  in
  let () =
    Compose.join root "domains" (fun domains ->
        let (_ : San.Place.t array) =
          Compose.replicate domains "domain" ~n:2 (fun d _ ->
              Compose.Ctx.int_place d "excluded")
        in
        ())
  in
  let rendering = Compose.structure root in
  List.iter
    (fun needle ->
      if not (contains ~needle rendering) then
        Alcotest.failf "structure rendering missing %S in:\n%s" needle
          rendering)
    [ "itua"; "apps"; "app[0] (Rep, 2 copies)"; "replica[0] (Rep, 3 copies)";
      "domains"; "domain[0] (Rep, 2 copies)" ];
  (* Rep siblings beyond the first copy are collapsed in the rendering. *)
  Alcotest.(check bool) "app[1] collapsed" false
    (contains ~needle:"app[1]" rendering);
  ignore (San.Model.Builder.build b)

let test_replicate_zero_rejected () =
  let b = San.Model.Builder.create "sys" in
  let root = Compose.Ctx.root b "sys" in
  Alcotest.(check bool) "n=0 rejected" true
    (match Compose.replicate root "x" ~n:0 (fun _ _ -> ()) with
    | (_ : unit array) -> false
    | exception Invalid_argument _ -> true)

let test_qualify () =
  let b = San.Model.Builder.create "sys" in
  let root = Compose.Ctx.root b "sys" in
  Alcotest.(check string) "root path is empty" "" (Compose.Ctx.path root);
  Alcotest.(check string) "root activity" "x" (Compose.Ctx.activity root "x");
  Compose.join root "sub" (fun sub ->
      Alcotest.(check string) "child path" "sub" (Compose.Ctx.path sub);
      Alcotest.(check string) "child activity" "sub.x"
        (Compose.Ctx.activity sub "x"));
  let info = Compose.info root in
  Alcotest.(check (list string)) "recorded at the root" [ "x" ]
    info.Compose.activities;
  Alcotest.(check (list (list string))) "recorded at the child"
    [ [ "sub.x" ] ]
    (List.map (fun (c : Compose.info) -> c.activities) info.children)

let () =
  Alcotest.run "compose"
    [
      ( "compose",
        [
          Alcotest.test_case "namespacing" `Quick test_namespacing;
          Alcotest.test_case "nested namespacing" `Quick
            test_nested_namespacing;
          Alcotest.test_case "sharing by capture" `Quick
            test_sharing_by_capture;
          Alcotest.test_case "join and structure" `Quick
            test_join_and_structure;
          Alcotest.test_case "replicate n=0" `Quick
            test_replicate_zero_rejected;
          Alcotest.test_case "qualify" `Quick test_qualify;
        ] );
    ]
