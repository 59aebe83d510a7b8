type severity = Error | Warning | Info

type source =
  | Model
  | Activity of string
  | Place of string
  | Composition of string

type t = {
  code : string;
  severity : severity;
  source : source;
  message : string;
}

let v ~code ~severity ~source message = { code; severity; source; message }

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let source_to_string = function
  | Model -> "model"
  | Activity a -> Printf.sprintf "activity %S" a
  | Place p -> Printf.sprintf "place %S" p
  | Composition p -> Printf.sprintf "composition node %S" p

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = String.compare a.code b.code in
  if c <> 0 then c
  else
    let c =
      String.compare (source_to_string a.source) (source_to_string b.source)
    in
    if c <> 0 then c
    else
      let c = String.compare a.message b.message in
      if c <> 0 then c
      else Int.compare (severity_rank a.severity) (severity_rank b.severity)

let pp ppf d =
  Format.fprintf ppf "[%s] %s %s: %s"
    (severity_to_string d.severity)
    d.code
    (source_to_string d.source)
    d.message

let to_json d =
  let kind, name =
    match d.source with
    | Model -> ("model", "")
    | Activity a -> ("activity", a)
    | Place p -> ("place", p)
    | Composition p -> ("composition", p)
  in
  Report.Json.Obj
    [
      ("code", Report.Json.Str d.code);
      ("severity", Report.Json.Str (severity_to_string d.severity));
      ("source_kind", Report.Json.Str kind);
      ("source", Report.Json.Str name);
      ("message", Report.Json.Str d.message);
    ]

let negative_write = "A003-negative-write"
let dead_activity = "A004-dead-activity"
let never_written_place = "A005-never-written-place"
let never_read_place = "A006-never-read-place"
let instantaneous_loop = "A007-instantaneous-loop"
let instantaneous_tie = "A008-instantaneous-tie"
let unused_shared_place = "A009-unused-shared-place"
let unbounded_place = "A010-unbounded-place"
let dead_effect = "A011-dead-effect"
let invariant_violated = "A012-invariant-violated"
let dead_branch = "A014-dead-branch"
let negative_capable = "A015-negative-capable-delta"
let orbit_report = "A017-orbit-report"
let broken_symmetry = "A018-broken-symmetry"
let unsound_canon = "A019-unsound-canon"

let catalogue =
  [
    (negative_write, "an effect drives an int place negative");
    (dead_activity, "an activity is never enabled in any visited marking");
    (never_written_place, "no effect ever writes this place");
    (never_read_place, "no activity function ever reads this place");
    (instantaneous_loop, "a chain of instantaneous firings never stabilizes");
    ( instantaneous_tie,
      "several instantaneous activities are enabled at the same instant" );
    ( unused_shared_place,
      "a shared place is never touched by the subtree it belongs to" );
    ( unbounded_place,
      "no covering P-semiflow and exploration could not bound the place" );
    (dead_effect, "a fired activity never changes the marking");
    (invariant_violated, "an effect breaks a declared conservation law");
    ( dead_branch,
      "an If/Pick branch is statically dead under the dominating guards \
       (informational: guarded cascade helpers legitimately specialize)" );
    ( negative_capable,
      "a resolved IR delta can drive a place negative under its \
       guard-pinned value or structural bound" );
    ( orbit_report,
      "automorphism-orbit certificate for a Replicate family: the \
       exchangeable copy classes, with verified transposition witnesses" );
    ( broken_symmetry,
      "a Replicate family's copies are not exchangeable; names the \
       place, activity or rate that splits the orbit" );
    ( unsound_canon,
      "a caller-supplied canonicalization merges states the orbit \
       refinement distinguishes (the quotient would be unsound)" );
  ]
