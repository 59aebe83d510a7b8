type result = {
  workload : string;
  seed : int64;
  traced : bool;
  passes : int;
  metrics : (Catalog.spec * float) list;
  raw : (string * float) list;
  checks : (string * bool) list;
  notes : (string * bool) list;
  stats : (string * float) list;
  digest : string;
  snapshot : string option;
}

let min_passes ~traced = if traced then 4 else 3

type timed = {
  pass : Workloads.pass;
  wall : float;
  setup : float;
  kernel : float;  (** the calibration kernel, timed just before *)
  traced_pass : bool;
}

(* Passes until the budget is spent: the next pass starts only while the
   median pass so far still fits, so a run ends close to [seconds]. *)
let passes ~seconds ~min f =
  let t0 = Obs.Clock.now_ns () in
  let rec go k acc =
    if
      k >= min
      && Obs.Clock.seconds_since t0
         +. Quantiles.median (List.map (fun t -> t.wall +. t.kernel) acc)
         > seconds
    then List.rev acc
    else go (k + 1) (f k :: acc)
  in
  go 0 []

let pass_seed (w : Workloads.t) seed k =
  if w.vary_seed then
    Int64.add seed (Int64.mul (Int64.of_int k) 0x9E3779B97F4A7C15L)
  else seed

(* [VmHWM] from /proc/self/status; nan (failing [metrics_finite]) where
   there is none. *)
let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
          | Some _ -> find ()
        in
        find ())
  with Sys_error _ | Scanf.Scan_failure _ -> nan

(* A check holds when it held in every pass. *)
let merge_checks passes =
  List.map
    (fun (name, _) ->
      ( name,
        List.for_all
          (fun (p : Workloads.pass) -> List.assoc name p.checks)
          passes ))
    (List.hd passes).Workloads.checks

let median_stats passes =
  List.map
    (fun (name, _) ->
      ( name,
        Quantiles.median
          (List.map
             (fun (p : Workloads.pass) -> List.assoc name p.stats)
             passes)
      ))
    (List.hd passes).Workloads.stats

let span_metrics spans ~untraced ~traced =
  let all = Spans.spans spans in
  let root = Spans.root_seconds all ~root_layer:"workload" in
  let self = Spans.layer_self_seconds all ~root_layer:"workload" in
  let share layer =
    Option.value (List.assoc_opt layer self) ~default:0.0 /. root
  in
  let layers =
    List.map (fun (layer, name) -> (name, share layer)) Catalog.span_layers
  in
  let coverage = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers in
  let self_ok = List.for_all (fun (_, ns) -> ns >= 0L) (Spans.self_ns all) in
  ( layers
    @ [
        ("span.harness_share", share "workload");
        ("span.coverage", coverage);
        ( "obs.trace_overhead",
          (Quantiles.median traced /. Quantiles.median untraced) -. 1.0 );
      ],
    [
      ("spans_nested", Spans.nested all);
      ("span_self_times_non_negative", self_ok);
      ( "layer_coverage_at_least_90pct",
        coverage >= 0.9 && coverage <= 1.0 +. 1e-9 );
    ] )

let run (w : Workloads.t) ~seed ~seconds ~trace =
  let spans = if trace then Spans.create () else Spans.off in
  let gc0 = Gc.quick_stat () in
  let runs =
    passes ~seconds ~min:(min_passes ~traced:trace) (fun k ->
        let kernel = Calibration.time_kernel () in
        let traced_pass = trace && k mod 2 = 1 in
        let ctx = Workloads.ctx (if traced_pass then spans else Spans.off) in
        (* Traced and untraced passes come in pairs on one sub-seed, so
           the overhead compares equal work. *)
        let seed = pass_seed w seed (if trace then k / 2 else k) in
        let t0 = Obs.Clock.now_ns () in
        let pass =
          if traced_pass then
            Spans.span spans ~layer:"workload" w.name (fun () ->
                w.run_pass ctx ~seed)
          else w.run_pass ctx ~seed
        in
        let wall = Obs.Clock.seconds_since t0 in
        { pass; wall; setup = ctx.Workloads.setup_s; kernel; traced_pass })
  in
  let gc1 = Gc.quick_stat () in
  let n = List.length runs in
  let passes = List.map (fun t -> t.pass) runs in
  let first = List.hd passes in
  let walls traced =
    List.filter_map
      (fun t -> if t.traced_pass = traced then Some t.wall else None)
      runs
  in
  let kernel_s = Quantiles.median (List.map (fun t -> t.kernel) runs) in
  let deterministic =
    if w.vary_seed then []
    else
      [
        ( "passes_bit_identical",
          List.for_all
            (fun (p : Workloads.pass) -> p.rendered = first.rendered)
            passes );
      ]
  in
  let checks = merge_checks passes @ deterministic @ w.run_checks passes in
  let measured, raw, trace_checks, snapshot =
    if not trace then
      let wall = Quantiles.median (walls false) in
      let setup = Quantiles.median (List.map (fun t -> t.setup) runs) in
      let scaled x = x *. Calibration.reference_s /. kernel_s in
      ( [
          ("wall_s", scaled wall);
          ("setup_s", scaled setup);
          ("peak_rss_mb", peak_rss_mb ());
        ],
        [ ("wall_s", wall); ("setup_s", setup); ("calibration_s", kernel_s) ],
        [],
        None )
    else
      let per_pass f = (f gc1 -. f gc0) /. float_of_int n in
      let gc =
        [
          ("gc.minor_words", per_pass (fun s -> s.Gc.minor_words));
          ( "gc.minor_collections",
            per_pass (fun s -> float_of_int s.Gc.minor_collections) );
          ( "gc.major_collections",
            per_pass (fun s -> float_of_int s.Gc.major_collections) );
          ("obs.calibration_s", kernel_s);
        ]
      in
      let span_values, span_checks =
        span_metrics spans ~untraced:(walls false) ~traced:(walls true)
      in
      let probes, snapshot = Probes.all spans w ~seed in
      (gc @ span_values @ probes, [], span_checks, Some snapshot)
  in
  ( {
      workload = w.name;
      seed;
      traced = trace;
      passes = n;
      metrics =
        Catalog.complete
          (if trace then Catalog.per_layer else Catalog.end_to_end)
          measured;
      raw;
      checks =
        checks @ trace_checks
        @ [
            ( "metrics_finite",
              List.for_all (fun (_, v) -> Float.is_finite v) measured );
          ];
      notes = first.notes;
      stats = median_stats passes;
      digest = Digest.to_hex (Digest.string first.rendered);
      snapshot;
    },
    spans )

let failed r =
  List.filter_map (fun (n, ok) -> if ok then None else Some n) r.checks

let to_json r =
  let module J = Report.Json in
  let failed = failed r in
  J.Obj
    [
      ("schema", J.Str "itua-bench-result/1");
      ("workload", J.Str r.workload);
      ("seed", J.Str (Int64.to_string r.seed));
      ("trace", J.Bool r.traced);
      ("passes", J.int r.passes);
      ( "metrics",
        J.Obj (List.map (fun (s, v) -> (s.Catalog.name, J.Num v)) r.metrics) );
      ("raw", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) r.raw));
      ( "checks",
        J.Obj
          [
            ("total", J.int (List.length r.checks));
            ("failed", J.int (List.length failed));
            ("failed_names", J.Arr (List.map (fun n -> J.Str n) failed));
          ] );
      ("digest", J.Str r.digest);
    ]

let contract_json r =
  let module J = Report.Json in
  J.Obj
    [
      ("correct", J.Bool (failed r = []));
      ("attempted", J.int (List.length r.checks));
      ("failed", J.int (List.length (failed r)));
      ( "metrics",
        J.Obj
          (List.map
             (fun (s, v) ->
               ( s.Catalog.name,
                 J.Obj
                   [ ("value", J.Num v); ("unit", J.Str s.Catalog.unit_) ] ))
             r.metrics) );
    ]

let print r =
  let ok b = if b then "PASS" else "FAIL" in
  Printf.printf "workload %s seed %Ld passes %d%s\n" r.workload r.seed r.passes
    (if r.traced then " traced" else "");
  List.iter (fun (n, b) -> Printf.printf "check %s %s\n" n (ok b)) r.checks;
  List.iter (fun (n, b) -> Printf.printf "note %s %s\n" n (ok b)) r.notes;
  let value kind (n, v) =
    Printf.printf "%s %s %s\n" kind n (Report.Json.float_to_string v)
  in
  List.iter (value "stat") r.stats;
  List.iter (value "raw") r.raw;
  List.iter
    (fun (s, v) ->
      Printf.printf "%s %s %s\n" s.Catalog.name (Report.Json.float_to_string v)
        s.Catalog.unit_)
    r.metrics;
  print_endline (Report.Json.to_string (to_json r));
  print_endline (Report.Json.to_string (contract_json r))

let write_trace path r spans =
  let meta =
    match r.snapshot with
    | None -> []
    | Some s -> (
        match Report.Json.of_string s with
        | Ok snapshot ->
            [
              Report.Json.Obj
                [
                  ("name", Report.Json.Str "itua-metrics");
                  ("ph", Report.Json.Str "M");
                  ("pid", Report.Json.int 0);
                  ("tid", Report.Json.int 0);
                  ("args", snapshot);
                ];
            ]
        | Error _ -> [])
  in
  Report.write_jsonl path (Spans.to_chrome spans @ meta)
