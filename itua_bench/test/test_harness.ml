(* Tests for the benchmark harness: its decomposed workloads compute what
   the toolkit's own entry points compute, the metric catalog matches
   BENCHMARK.json, spans nest and account for their time, the A/B rule
   decides as documented, and profile snapshots carry the GC delta of
   their own pass only. *)

open Itua_harness
module J = Report.Json

let seed = 20030622L
let off () = Workloads.ctx Spans.off

let render panels =
  String.concat ""
    (List.map
       (fun (id, t) -> Format.asprintf "%s@.%a" id Report.pp_text t)
       panels)

(* --- workloads against the toolkit's entry points --- *)

let study_config = { Itua.Study.reps = 20; seed; domains = 1 }

let test_fig3_matches_study () =
  let panels, _ = Workloads.fig3_panels (off ()) ~seed ~reps:20 in
  Alcotest.(check string)
    "fig3 tables"
    (render (Itua.Study.fig3 ~config:study_config ()))
    (render panels)

let test_fig5_matches_study () =
  let panels, _ = Workloads.fig5_panels (off ()) ~seed ~reps:20 in
  Alcotest.(check string)
    "fig5 tables"
    (render (Itua.Study.fig5 ~config:study_config ()))
    (render panels)

(* The staged certificate is [Analysis.Check.run] split into its stages;
   traced, its spans nest and cover the traced call. *)
let test_staged_check () =
  let params = List.assoc "2x2x2x2" Workloads.certificate_configs in
  let h = Itua.Model.build params in
  let spans = Spans.create () in
  let staged, _ =
    Spans.span spans ~layer:"workload" "certificate" (fun () ->
        Workloads.staged_check (Workloads.ctx spans) h)
  in
  let reference =
    Analysis.Check.run ~composition:h.Itua.Model.composition
      ~laws:(Itua.Invariant.conservation_laws h)
      h.Itua.Model.model
  in
  Alcotest.(check string)
    "Check.to_json"
    (J.to_string (Analysis.Check.to_json reference))
    (J.to_string (Analysis.Check.to_json staged));
  let all = Spans.spans spans in
  Alcotest.(check int) "root + 5 stages" 6 (List.length all);
  Alcotest.(check bool) "nested" true (Spans.nested all);
  let self = Spans.layer_self_seconds all ~root_layer:"workload" in
  let analysis = List.assoc "analysis" self in
  let root = Spans.root_seconds all ~root_layer:"workload" in
  Alcotest.(check bool) "analysis covers >= 90%" true (analysis >= 0.9 *. root);
  Alcotest.(check (float 1e-9))
    "self-times sum to the root" root
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 self)

(* --- spans --- *)

let test_spans () =
  let t = Spans.create () in
  let busy () =
    let r = ref 0 in
    for i = 1 to 100_000 do
      r := !r + i
    done;
    ignore (Sys.opaque_identity !r)
  in
  Spans.span t ~layer:"workload" "root" (fun () ->
      busy ();
      Spans.span t ~layer:"a" "a1" (fun () ->
          busy ();
          Spans.span t ~layer:"b" "b1" busy);
      (try Spans.span t ~layer:"b" "b2" (fun () -> failwith "boom")
       with Failure _ -> ());
      Spans.span t ~layer:"a" "a2" busy);
  Spans.span t ~layer:"probe" "probe" busy;
  let all = Spans.spans t in
  Alcotest.(check (list string))
    "opening order"
    [ "root"; "a1"; "b1"; "b2"; "a2"; "probe" ]
    (List.map (fun s -> s.Spans.name) all);
  Alcotest.(check (list int))
    "parents" [ -1; 0; 1; 0; 0; -1 ]
    (List.map (fun s -> s.Spans.parent) all);
  Alcotest.(check bool) "nested" true (Spans.nested all);
  List.iter
    (fun (s, self) ->
      if self < 0L then Alcotest.failf "negative self-time on %s" s.Spans.name)
    (Spans.self_ns all);
  let self = Spans.layer_self_seconds all ~root_layer:"workload" in
  Alcotest.(check (list string))
    "probe root excluded" [ "a"; "b"; "workload" ] (List.map fst self);
  Alcotest.(check (float 1e-9))
    "self-times sum to the root"
    (Spans.root_seconds all ~root_layer:"workload")
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 self);
  let disabled = Spans.off in
  Alcotest.(check int) "off records nothing" 7
    (Spans.span disabled ~layer:"x" "x" (fun () -> 7));
  Alcotest.(check int) "off is empty" 0 (List.length (Spans.spans disabled));
  let root = List.hd all in
  let early =
    { (List.nth all 1) with Spans.start_ns = Int64.pred root.Spans.start_ns }
  in
  Alcotest.(check bool)
    "child before parent detected" false
    (Spans.nested [ root; early ])

(* --- metric catalog against BENCHMARK.json --- *)

let benchmark () =
  match
    J.of_string
      (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let entries key =
  match Option.bind (J.member key (benchmark ())) J.arr with
  | Some l -> l
  | None -> Alcotest.failf "BENCHMARK.json: no %s" key

let str k e = Option.value (Option.bind (J.member k e) J.str) ~default:""

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let test_catalog () =
  let declared specs =
    List.map
      (fun (s : Catalog.spec) ->
        (s.name, s.unit_, Catalog.better_to_string s.better))
      specs
  in
  let listed key =
    List.map
      (fun e -> (str "name" e, str "unit" e, str "better" e))
      (entries key)
  in
  Alcotest.(check (list (triple string string string)))
    "end_to_end" (declared Catalog.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (triple string string string)))
    "per_layer" (declared Catalog.per_layer) (listed "per_layer");
  let names =
    List.map (fun (n, _, _) -> n) (listed "end_to_end" @ listed "per_layer")
  in
  List.iter
    (fun n -> if not (valid_name n) then Alcotest.failf "bad name %S" n)
    names;
  Alcotest.(check int)
    "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun (w : Workloads.t) -> (w.name, w.why)) Workloads.all)
    (List.map (fun e -> (str "name" e, str "why" e)) (entries "workloads"));
  match Compare.bounds_of_benchmark (benchmark ()) with
  | Error e -> Alcotest.fail e
  | Ok bounds ->
      let setup =
        List.find (fun (b : Compare.bound) -> b.metric = "setup_s") bounds
      in
      List.iter
        (fun (b : Compare.bound) ->
          if b.bound > 0.25 || b.bound > setup.bound then
            Alcotest.failf "bound of %s" b.metric)
        bounds

let test_complete () =
  let specs = Catalog.end_to_end in
  let values = List.map (fun s -> (s.Catalog.name, 1.0)) specs in
  Alcotest.(check int)
    "all present" 3
    (List.length (Catalog.complete specs values));
  (match Catalog.complete specs (List.tl values) with
  | _ -> Alcotest.fail "missing metric accepted"
  | exception Failure _ -> ());
  match Catalog.complete specs (("extra", 1.0) :: values) with
  | _ -> Alcotest.fail "undeclared metric accepted"
  | exception Failure _ -> ()

(* --- quantiles and the A/B rule --- *)

let test_quantiles () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Quantiles.quartiles xs in
  Alcotest.(check (list (float 1e-12)))
    "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-12)) "median" 5.5 (Quantiles.median xs);
  Alcotest.(check (float 1e-12))
    "p99 of 10" 10.0
    (Quantiles.percentile xs 0.99);
  Alcotest.(check (float 1e-12)) "p50 of 10" 5.0 (Quantiles.percentile xs 0.5)

let lower = { Compare.metric = "wall_s"; better = Catalog.Lower; bound = 0.1 }

let verdict ~parent ~change =
  let _, _, _, _, v = Compare.judge lower ~parent ~change in
  Compare.verdict_to_string v

(* Ten samples evenly spaced around c, within c * spread of it. *)
let around c spread =
  List.init 10 (fun i ->
      c *. (1.0 +. (spread *. float_of_int (i - 5) /. 5.0)))

let test_compare () =
  let parent = around 1.0 0.01 in
  let check name change =
    Alcotest.(check string) name name (verdict ~parent ~change)
  in
  check "same" (around 1.005 0.01);
  check "gain" (around 0.9 0.01);
  check "regression" (around 1.2 0.01);
  Alcotest.(check string)
    "unresolved" "unresolved"
    (verdict ~parent:(around 1.0 0.3) ~change:(around 1.0 0.3));
  Alcotest.(check string)
    "too few" "too-few-pairs"
    (verdict ~parent:(List.tl parent) ~change:(around 0.5 0.01));
  (* Wins on 8 of 10 pairs only: a better median is not a gain. *)
  let change =
    List.mapi (fun i p -> if i < 2 then p *. 1.01 else p *. 0.9) parent
  in
  Alcotest.(check string) "8/10 wins" "same" (verdict ~parent ~change);
  let higher = { lower with Compare.better = Catalog.Higher } in
  let _, _, _, _, v = Compare.judge higher ~parent ~change:(around 0.8 0.01) in
  Alcotest.(check string)
    "higher is better" "regression"
    (Compare.verdict_to_string v)

let test_compare_files () =
  let result w v =
    J.Obj
      [
        ("schema", J.Str "itua-bench-result/1");
        ("workload", J.Str w);
        ("trace", J.Bool false);
        ("metrics", J.Obj [ ("wall_s", J.Num v) ]);
      ]
  in
  let samples base =
    Compare.samples_of_results
      (List.concat
         (List.init 10 (fun i ->
              [
                result "a" (base +. (0.001 *. float_of_int i));
                result "b" 2.0;
                J.Str "not a result";
              ])))
  in
  let parent = samples 1.0 and change = samples 1.5 in
  let rows = Compare.compare ~bounds:[ lower ] ~parent ~change in
  Alcotest.(check (list (pair string string)))
    "one row per workload"
    [ ("a", "regression"); ("b", "same") ]
    (List.map
       (fun (r : Compare.row) ->
         (r.workload, Compare.verdict_to_string r.verdict))
       rows)

(* --- profile snapshots --- *)

let snapshot_words snapshot =
  let j =
    match J.of_string snapshot with Ok j -> j | Error e -> Alcotest.fail e
  in
  let metrics =
    List.concat_map
      (fun s ->
        Option.value (Option.bind (J.member "metrics" s) J.arr) ~default:[])
      (Option.value (Option.bind (J.member "scopes" j) J.arr) ~default:[])
  in
  match
    List.find_opt (fun m -> str "name" m = "gc_allocated_words") metrics
  with
  | Some m -> Option.get (Option.bind (J.member "value" m) J.num)
  | None -> Alcotest.fail "no gc_allocated_words"

let within_10pct ~expected actual =
  Float.abs (actual -. expected) <= 0.1 *. expected

let allocate words =
  (* Float arrays this large go straight to the major heap: [words] words
     plus one header each. *)
  let n = words / 10_001 in
  Sys.opaque_identity (List.init n (fun _ -> Array.make 10_000 0.0))

let test_snapshot_gc () =
  (* A pass that allocates a known amount. *)
  let profile = Obs.Profile.create () in
  let w0 = Probes.allocated_words () in
  ignore (allocate 2_000_000);
  let snapshot = Probes.profile_snapshot profile in
  let delta = Probes.allocated_words () -. w0 in
  let words = snapshot_words snapshot in
  if
    not
      (within_10pct ~expected:delta words && within_10pct ~expected:2e6 words)
  then Alcotest.failf "snapshot %.0f words, Gc.counters %.0f" words delta;
  (* The executor's profile pass, then allocation after it. *)
  let h =
    Itua.Model.build (List.assoc "2x2x2x2" Workloads.certificate_configs)
  in
  let w0 = Probes.allocated_words () in
  let profile, snapshot, _, _ =
    Probes.profile_pass ~model:h.Itua.Model.model
      ~config:(Sim.Executor.config ~horizon:5.0 ())
      ~seed ~runs:50
  in
  let delta = Probes.allocated_words () -. w0 in
  ignore (allocate 20_000_000);
  let words = snapshot_words snapshot in
  if not (within_10pct ~expected:delta words) then
    Alcotest.failf "pass snapshot %.0f words, Gc.counters %.0f" words delta;
  (* Exporting only now, as a snapshot taken after later sections would,
     folds the later allocation in. *)
  let late = snapshot_words (Probes.profile_snapshot profile) in
  if late < words +. 1.5e7 then
    Alcotest.failf "late export %.0f words should include the later 2e7" late

let () =
  Alcotest.run "itua_bench"
    [
      ( "workloads",
        [
          Alcotest.test_case "fig3 loop matches Itua.Study.fig3" `Quick
            test_fig3_matches_study;
          Alcotest.test_case "fig5 loop matches Itua.Study.fig5" `Quick
            test_fig5_matches_study;
          Alcotest.test_case "staged certificate matches Check.run" `Quick
            test_staged_check;
        ] );
      ( "spans",
        [ Alcotest.test_case "nesting and self-time" `Quick test_spans ] );
      ( "catalog",
        [
          Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalog;
          Alcotest.test_case "complete" `Quick test_complete;
        ] );
      ( "compare",
        [
          Alcotest.test_case "quartiles as Python" `Quick test_quantiles;
          Alcotest.test_case "verdicts" `Quick test_compare;
          Alcotest.test_case "pairs by workload" `Quick test_compare_files;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "GC words of its own pass" `Quick
            test_snapshot_gc;
        ] );
    ]
