type bound = { metric : string; better : Catalog.better; bound : float }
type verdict = Gain | Regression | Unresolved | Same | Too_few
type side = { q1 : float; median : float; q3 : float }

type row = {
  workload : string;
  metric : string;
  pairs : int;
  parent : side;
  change : side;
  wins : int;
  verdict : verdict;
}

let min_pairs = 10

let verdict_to_string = function
  | Gain -> "gain"
  | Regression -> "regression"
  | Unresolved -> "unresolved"
  | Same -> "same"
  | Too_few -> "too-few-pairs"

let side xs =
  if List.length xs < 2 then { q1 = nan; median = nan; q3 = nan }
  else
    let q1, median, q3 = Quantiles.quartiles xs in
    { q1; median; q3 }

let take n xs = List.filteri (fun i _ -> i < n) xs

let judge b ~parent ~change =
  let n = Int.min (List.length parent) (List.length change) in
  let parent = take n parent and change = take n change in
  let ps = side parent and cs = side change in
  let better x y =
    match b.better with Catalog.Lower -> x < y | Catalog.Higher -> x > y
  in
  let wins =
    List.length (List.filter Fun.id (List.map2 better change parent))
  in
  let worse_by =
    match b.better with
    | Catalog.Lower -> (cs.median -. ps.median) /. ps.median
    | Catalog.Higher -> (ps.median -. cs.median) /. ps.median
  in
  let spread s = (s.q3 -. s.q1) /. s.median in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
  in
  let verdict =
    if n < min_pairs then Too_few
    else if worse_by > b.bound then Regression
    else if
      10 * wins >= 9 * n
      && better cs.median ps.median
      && Float.abs (cs.median -. ps.median) > ps.q3 -. ps.q1
    then Gain
    else if Float.max (spread ps) (spread cs) > b.bound && not all_better then
      Unresolved
    else Same
  in
  (n, ps, cs, wins, verdict)

let bounds_of_benchmark json =
  let module J = Report.Json in
  let field k o = Option.to_result ~none:("missing " ^ k) (J.member k o) in
  let ( let* ) = Result.bind in
  let* entries = field "end_to_end" json in
  let entries = Option.value (J.arr entries) ~default:[] in
  List.fold_right
    (fun e acc ->
      let* acc = acc in
      let* name = field "name" e in
      let* better = field "better" e in
      let* bound = field "bound" e in
      match (J.str name, J.str better, J.num bound) with
      | Some metric, Some "lower", Some bound ->
          Ok ({ metric; better = Catalog.Lower; bound } :: acc)
      | Some metric, Some "higher", Some bound ->
          Ok ({ metric; better = Catalog.Higher; bound } :: acc)
      | _ -> Error "end_to_end entry needs a name, a better and a bound")
    entries (Ok [])

type sample = { s_workload : string; s_metrics : (string * float) list }

let samples_of_results lines =
  let module J = Report.Json in
  List.filter_map
    (fun line ->
      match
        ( Option.bind (J.member "schema" line) J.str,
          Option.bind (J.member "trace" line) J.bool,
          Option.bind (J.member "workload" line) J.str,
          J.member "metrics" line )
      with
      | Some "itua-bench-result/1", Some false, Some w, Some (J.Obj ms) ->
          Some
            {
              s_workload = w;
              s_metrics =
                List.filter_map
                  (fun (k, v) -> Option.map (fun v -> (k, v)) (J.num v))
                  ms;
            }
      | _ -> None)
    lines

let compare ~bounds ~parent ~change =
  let workloads =
    List.fold_left
      (fun acc s ->
        if List.mem s.s_workload acc then acc else acc @ [ s.s_workload ])
      [] parent
  in
  let values samples w metric =
    List.filter_map
      (fun s ->
        if s.s_workload = w then List.assoc_opt metric s.s_metrics else None)
      samples
  in
  List.concat_map
    (fun workload ->
      List.map
        (fun b ->
          let pairs, parent, change, wins, verdict =
            judge b
              ~parent:(values parent workload b.metric)
              ~change:(values change workload b.metric)
          in
          { workload; metric = b.metric; pairs; parent; change; wins; verdict })
        bounds)
    workloads

let pp_row ppf r =
  let s x = Printf.sprintf "%.4g" x in
  let side v = Printf.sprintf "%s [%s, %s]" (s v.median) (s v.q1) (s v.q3) in
  Format.fprintf ppf "%-12s %-12s %3d  %-32s %-32s %3d/%-3d %s" r.workload
    r.metric r.pairs (side r.parent) (side r.change) r.wins r.pairs
    (verdict_to_string r.verdict)

let header =
  Printf.sprintf "%-12s %-12s %3s  %-32s %-32s %7s %s" "workload" "metric"
    "n" "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict"
