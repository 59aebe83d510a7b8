type t = {
  model_name : string;
  mode : Space.mode;
  n_stable : int;
  n_vanishing : int;
  truncated : bool;
  fallback : string option;
  diagnostics : Diagnostic.t list;
  structure : Structure.t;
  incidence : string;
  sampled_fallbacks : string list;
}

let run ?composition ?laws ?max_states ?runs ?horizon model =
  let space = Space.build ?max_states ?runs ?horizon model in
  let facts = Passes.gather space in
  let structure = Structure.analyse ?laws space in
  let diagnostics =
    Passes.all ?composition facts @ Structure.diagnostics structure
    |> List.sort_uniq Diagnostic.compare
  in
  {
    model_name = San.Model.name model;
    mode = space.Space.mode;
    n_stable = space.Space.n_stable;
    n_vanishing = space.Space.n_vanishing;
    truncated = space.Space.truncated;
    fallback = space.Space.fallback;
    diagnostics;
    structure;
    incidence = Structure.incidence_name structure.Structure.incidence;
    sampled_fallbacks = Structure.sampled_fallbacks structure;
  }

let count sev t =
  List.length
    (List.filter (fun d -> d.Diagnostic.severity = sev) t.diagnostics)

let errors t =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) t.diagnostics

let has_errors t = errors t <> []

let exit_code ?(strict = false) t =
  if has_errors t then 1
  else if strict && count Diagnostic.Warning t > 0 then 1
  else 0

let pp ppf t =
  let coverage =
    match t.mode with
    | Space.Exhaustive ->
        Printf.sprintf "exhaustive, %d stable markings (+ %d vanishing)"
          t.n_stable t.n_vanishing
    | Space.Sampled ->
        Printf.sprintf "sampled, %d distinct markings%s" t.n_stable
          (if t.truncated then ", truncated" else "")
  in
  Format.fprintf ppf "model %S: %s; incidence %s@." t.model_name coverage
    t.incidence;
  (match t.fallback with
  | Some why -> Format.fprintf ppf "  (exhaustive walk unavailable: %s)@." why
  | None -> ());
  List.iter
    (fun why -> Format.fprintf ppf "  sampled fallback: %s@." why)
    t.sampled_fallbacks;
  List.iter
    (fun d -> Format.fprintf ppf "  %a@." Diagnostic.pp d)
    t.diagnostics;
  let e = count Diagnostic.Error t
  and w = count Diagnostic.Warning t
  and i = count Diagnostic.Info t in
  if e + w + i = 0 then Format.fprintf ppf "no diagnostics@."
  else Format.fprintf ppf "%d error(s), %d warning(s), %d note(s)@." e w i

let fields t =
  let open Report.Json in
  [
    ("schema", Str "itua-analysis/1");
    ("model", Str t.model_name);
    ( "mode",
      Str
        (match t.mode with
        | Space.Exhaustive -> "exhaustive"
        | Space.Sampled -> "sampled") );
    ("stable_markings", int t.n_stable);
    ("vanishing_markings", int t.n_vanishing);
    ("truncated", Bool t.truncated);
    ("incidence", Str t.incidence);
    ( "sampled_fallbacks",
      Arr (List.map (fun s -> Str s) t.sampled_fallbacks) );
    ( "fallback",
      match t.fallback with None -> Null | Some why -> Str why );
    ( "summary",
      Obj
        [
          ("errors", int (count Diagnostic.Error t));
          ("warnings", int (count Diagnostic.Warning t));
          ("infos", int (count Diagnostic.Info t));
        ] );
    ("diagnostics", Arr (List.map Diagnostic.to_json t.diagnostics));
    ("structure", Structure.to_json t.structure);
  ]

let to_json t = Report.Json.Obj (fields t)

(* The one assembly of the [check --json] document, shared by the CLI,
   the golden generator and the golden test, so the committed golden
   pins what the CLI writes. *)
let certificate ?orbits ?ir_dump t =
  let t =
    match orbits with
    | None -> t
    | Some rep ->
        {
          t with
          diagnostics =
            List.sort Diagnostic.compare
              (t.diagnostics @ Orbit.diagnostics rep);
        }
  in
  let extra =
    Option.to_list (Option.map (fun r -> ("symmetry", Orbit.to_json r)) orbits)
    @ Option.to_list
        (Option.map (fun d -> ("ir_dump", Ir_dump.to_json d)) ir_dump)
  in
  (t, Report.Json.Obj (fields t @ extra))
