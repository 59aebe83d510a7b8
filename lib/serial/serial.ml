module J = Report.Json

let schema = "itua-model/2"

exception Unportable of string

let unportable act what =
  raise (Unportable (Printf.sprintf "activity %S: %s" act what))

(* Aggregated portability scan, run before any emission: one [Unportable]
   naming EVERY activity with a closure-only timing, so a model with
   several is fixed in one round trip instead of one error per attempt.
   The per-site [unportable] raise in [timing_json] remains as a
   backstop but is unreachable after this. *)
let check_portable model =
  let problems =
    Array.to_list (San.Model.activities model)
    |> List.filter_map (fun (a : San.Activity.t) ->
           match a.timing with
           | San.Activity.Timed { dist_ir = None; _ } ->
               Some
                 (Printf.sprintf
                    "activity %S: closure-only timing distribution" a.name)
           | _ -> None)
  in
  match problems with
  | [] -> ()
  | ps ->
      raise
        (Unportable
           (Printf.sprintf "%d unportable activit%s — %s" (List.length ps)
              (if List.length ps = 1 then "y" else "ies")
              (String.concat "; " ps)))

(* ------------------------------------------------------------------ *)
(* Emission.  Key order is fixed so equal models produce equal bytes. *)
(* ------------------------------------------------------------------ *)

let rel_str = function
  | San.Effect.Eq -> "="
  | San.Effect.Ne -> "!="
  | San.Effect.Lt -> "<"
  | San.Effect.Le -> "<="
  | San.Effect.Gt -> ">"
  | San.Effect.Ge -> ">="

let rec iexpr_json = function
  | San.Effect.Int n -> J.int n
  | San.Effect.Mark p -> J.Obj [ ("mark", J.Str (San.Place.name p)) ]
  | San.Effect.Add (a, b) -> J.Arr [ J.Str "+"; iexpr_json a; iexpr_json b ]
  | San.Effect.Sub (a, b) -> J.Arr [ J.Str "-"; iexpr_json a; iexpr_json b ]
  | San.Effect.Mul (a, b) -> J.Arr [ J.Str "*"; iexpr_json a; iexpr_json b ]
  | San.Effect.Ind c -> J.Arr [ J.Str "ind"; cond_json c ]

and cond_json = function
  | San.Effect.Const b -> J.Bool b
  | San.Effect.Cmp (a, r, b) ->
      J.Arr [ J.Str (rel_str r); iexpr_json a; iexpr_json b ]
  | San.Effect.All cs -> J.Arr (J.Str "all" :: List.map cond_json cs)
  | San.Effect.Any cs -> J.Arr (J.Str "any" :: List.map cond_json cs)
  | San.Effect.Not c -> J.Arr [ J.Str "not"; cond_json c ]

let rec rexpr_json = function
  | San.Effect.RConst x -> J.Num x
  | San.Effect.FMark p -> J.Obj [ ("fmark", J.Str (San.Place.fname p)) ]
  | San.Effect.OfInt e -> J.Arr [ J.Str "of_int"; iexpr_json e ]
  | San.Effect.FAdd (a, b) -> J.Arr [ J.Str "+."; rexpr_json a; rexpr_json b ]
  | San.Effect.FSub (a, b) -> J.Arr [ J.Str "-."; rexpr_json a; rexpr_json b ]
  | San.Effect.FMul (a, b) -> J.Arr [ J.Str "*."; rexpr_json a; rexpr_json b ]
  | San.Effect.FDiv (a, b) -> J.Arr [ J.Str "/."; rexpr_json a; rexpr_json b ]
  | San.Effect.RIf (c, a, b) ->
      J.Arr [ J.Str "if"; cond_json c; rexpr_json a; rexpr_json b ]

let op_json = function
  | San.Effect.Set (p, e) ->
      J.Arr [ J.Str "set"; J.Str (San.Place.name p); iexpr_json e ]
  | San.Effect.Inc (p, e) ->
      J.Arr [ J.Str "inc"; J.Str (San.Place.name p); iexpr_json e ]
  | San.Effect.FSet (p, e) ->
      J.Arr [ J.Str "fset"; J.Str (San.Place.fname p); rexpr_json e ]
  | San.Effect.FInc (p, e) ->
      J.Arr [ J.Str "finc"; J.Str (San.Place.fname p); rexpr_json e ]

let rec effect_json = function
  | San.Effect.Skip -> J.Str "skip"
  | San.Effect.Ops ops -> J.Obj [ ("ops", J.Arr (List.map op_json ops)) ]
  | San.Effect.Seq es -> J.Obj [ ("seq", J.Arr (List.map effect_json es)) ]
  | San.Effect.If (c, t, San.Effect.Skip) ->
      J.Obj [ ("if", cond_json c); ("then", effect_json t) ]
  | San.Effect.If (c, t, e) ->
      J.Obj
        [ ("if", cond_json c); ("then", effect_json t); ("else", effect_json e) ]
  | San.Effect.Pick branches ->
      J.Obj
        [
          ( "pick",
            J.Arr
              (List.map
                 (fun (c, e) -> J.Arr [ cond_json c; effect_json e ])
                 branches) );
        ]

let dist_json d =
  let kind k fields = J.Obj (("kind", J.Str k) :: fields) in
  match d with
  | San.Activity.DExp r -> kind "exponential" [ ("rate", rexpr_json r) ]
  | San.Activity.DDet r -> kind "deterministic" [ ("delay", rexpr_json r) ]
  | San.Activity.DUniform (lo, hi) ->
      kind "uniform" [ ("lo", rexpr_json lo); ("hi", rexpr_json hi) ]
  | San.Activity.DErlang (k, r) ->
      kind "erlang" [ ("k", J.int k); ("rate", rexpr_json r) ]
  | San.Activity.DGamma (a, b) ->
      kind "gamma" [ ("shape", rexpr_json a); ("rate", rexpr_json b) ]
  | San.Activity.DWeibull (a, b) ->
      kind "weibull" [ ("shape", rexpr_json a); ("scale", rexpr_json b) ]
  | San.Activity.DLognormal (a, b) ->
      kind "lognormal" [ ("mu", rexpr_json a); ("sigma", rexpr_json b) ]
  | San.Activity.DNormal (a, b) ->
      kind "normal" [ ("mean", rexpr_json a); ("stddev", rexpr_json b) ]

let timing_json ~act = function
  | San.Activity.Instantaneous -> J.Obj [ ("type", J.Str "instantaneous") ]
  | San.Activity.Timed { dist_ir = None; _ } ->
      unportable act "closure-only timing distribution"
  | San.Activity.Timed { dist_ir = Some d; policy; _ } ->
      J.Obj
        [
          ("type", J.Str "timed");
          ( "policy",
            J.Str
              (match policy with
              | San.Activity.Resample -> "resample"
              | San.Activity.Keep -> "keep") );
          ("dist", dist_json d);
        ]

let activity_json (a : San.Activity.t) =
  let act = a.name in
  let case_json (c : San.Activity.case) =
    J.Obj
      [ ("weight", rexpr_json c.weight_ir); ("effect", effect_json c.effect) ]
  in
  J.Obj
    [
      ("name", J.Str act);
      ("timing", timing_json ~act a.timing);
      ("guard", cond_json a.guard);
      ("cases", J.Arr (Array.to_list (Array.map case_json a.cases)));
    ]

(* One array in uid (creation) order, both kinds interleaved: the parser
   re-creates places through the builder in array order, so the rebuilt
   model assigns identical uids and indices — a requirement for
   bit-identical journals and trajectories. *)
let places_json ~bounds model =
  let m0 = San.Model.initial_marking model in
  let ints =
    Array.to_list
      (Array.map
         (fun p ->
           let name = San.Place.name p in
           let fields =
             [
               ("name", J.Str name);
               ("kind", J.Str "int");
               ("init", J.int (San.Marking.get m0 p));
             ]
           in
           let fields =
             match List.assoc_opt name bounds with
             | Some b -> fields @ [ ("bound", J.int b) ]
             | None -> fields
           in
           (San.Place.uid p, J.Obj fields))
         (San.Model.places model))
  in
  let floats =
    Array.to_list
      (Array.map
         (fun p ->
           ( San.Place.fuid p,
             J.Obj
               [
                 ("name", J.Str (San.Place.fname p));
                 ("kind", J.Str "float");
                 ("init", J.Num (San.Marking.fget m0 p));
               ] ))
         (San.Model.float_places model))
  in
  List.sort (fun (a, _) (b, _) -> compare (a : int) b) (ints @ floats)
  |> List.map snd

let rec info_json (n : Compose.info) =
  J.Obj
    ((("label", J.Str n.label)
      :: (match n.rep_copies with
         | Some c -> [ ("rep", J.int c) ]
         | None -> []))
    @ [
        ( "places",
          J.Arr (List.map (fun p -> J.Str (San.Place.any_name p)) n.places) );
        ("activities", J.Arr (List.map (fun s -> J.Str s) n.activities));
        ("children", J.Arr (List.map info_json n.children));
      ])

let to_json ?(bounds = []) ?composition ?(annotations = []) model =
  check_portable model;
  List.iter
    (fun (n, _) ->
      match San.Model.find_place_opt model n with
      | Some _ -> ()
      | None ->
          invalid_arg
            (Printf.sprintf "Serial.to_json: bound for unknown int place %S" n))
    bounds;
  J.Obj
    (("schema", J.Str schema)
     :: ("name", J.Str (San.Model.name model))
     :: ("places", J.Arr (places_json ~bounds model))
     :: ( "activities",
          J.Arr
            (Array.to_list
               (Array.map activity_json (San.Model.activities model))) )
     :: (match composition with
        | Some c -> [ ("composition", info_json c) ]
        | None -> [])
    @ match annotations with [] -> [] | l -> [ ("annotations", J.Obj l) ])

let emit ?bounds ?composition ?annotations model =
  J.to_string (to_json ?bounds ?composition ?annotations model)

let save path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string j);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Parsing.  Every error carries a JSON-pointer-style path rooted at   *)
(* [$], e.g. [$.activities[3].cases[0].effect.ops[1]].                 *)
(* ------------------------------------------------------------------ *)

let any_place_ref places at j =
  let name = J.get_str at j in
  match Hashtbl.find_opt places name with
  | Some p -> p
  | None -> J.fail at "unknown place %S" name

let int_place_ref places at j =
  match any_place_ref places at j with
  | San.Place.P p -> p
  | San.Place.F p ->
      J.fail at "place %S is a float place, expected an int place"
        (San.Place.fname p)

let float_place_ref places at j =
  match any_place_ref places at j with
  | San.Place.F p -> p
  | San.Place.P p ->
      J.fail at "place %S is an int place, expected a float place"
        (San.Place.name p)

let rel_of at = function
  | "=" -> San.Effect.Eq
  | "!=" -> San.Effect.Ne
  | "<" -> San.Effect.Lt
  | "<=" -> San.Effect.Le
  | ">" -> San.Effect.Gt
  | ">=" -> San.Effect.Ge
  | s -> J.fail at "unknown comparison operator %S" s

let rec p_iexpr places at j =
  match j with
  | J.Num _ -> San.Effect.Int (J.get_int at j)
  | J.Obj [ ("mark", v) ] ->
      San.Effect.Mark (int_place_ref places (J.key at "mark") v)
  | J.Arr [ J.Str "ind"; c ] -> San.Effect.Ind (p_cond places (J.idx at 1) c)
  | J.Arr [ J.Str (("+" | "-" | "*") as t); a; b ] ->
      let a = p_iexpr places (J.idx at 1) a
      and b = p_iexpr places (J.idx at 2) b in
      (match t with
      | "+" -> San.Effect.Add (a, b)
      | "-" -> San.Effect.Sub (a, b)
      | _ -> San.Effect.Mul (a, b))
  | j -> J.fail at "cannot parse integer expression %s" (J.short j)

and p_cond places at j =
  match j with
  | J.Bool b -> San.Effect.Const b
  | J.Arr (J.Str "all" :: cs) ->
      San.Effect.All
        (List.mapi (fun i c -> p_cond places (J.idx at (i + 1)) c) cs)
  | J.Arr (J.Str "any" :: cs) ->
      San.Effect.Any
        (List.mapi (fun i c -> p_cond places (J.idx at (i + 1)) c) cs)
  | J.Arr [ J.Str "not"; c ] -> San.Effect.Not (p_cond places (J.idx at 1) c)
  | J.Arr [ J.Str (("=" | "!=" | "<" | "<=" | ">" | ">=") as r); a; b ] ->
      San.Effect.Cmp
        ( p_iexpr places (J.idx at 1) a,
          rel_of at r,
          p_iexpr places (J.idx at 2) b )
  | j -> J.fail at "cannot parse condition %s" (J.short j)

let rec p_rexpr places at j =
  match j with
  | J.Num x -> San.Effect.RConst x
  | J.Arr [ J.Str "if"; c; a; b ] ->
      San.Effect.RIf
        ( p_cond places (J.idx at 1) c,
          p_rexpr places (J.idx at 2) a,
          p_rexpr places (J.idx at 3) b )
  | J.Obj [ ("fmark", v) ] ->
      San.Effect.FMark (float_place_ref places (J.key at "fmark") v)
  | J.Arr [ J.Str "of_int"; e ] ->
      San.Effect.OfInt (p_iexpr places (J.idx at 1) e)
  | J.Arr [ J.Str (("+." | "-." | "*." | "/.") as t); a; b ] ->
      let a = p_rexpr places (J.idx at 1) a
      and b = p_rexpr places (J.idx at 2) b in
      (match t with
      | "+." -> San.Effect.FAdd (a, b)
      | "-." -> San.Effect.FSub (a, b)
      | "*." -> San.Effect.FMul (a, b)
      | _ -> San.Effect.FDiv (a, b))
  | j -> J.fail at "cannot parse float expression %s" (J.short j)

let p_op places at j =
  match j with
  | J.Arr [ J.Str (("set" | "inc") as t); n; e ] ->
      let p = int_place_ref places (J.idx at 1) n in
      let e = p_iexpr places (J.idx at 2) e in
      if t = "set" then San.Effect.Set (p, e) else San.Effect.Inc (p, e)
  | J.Arr [ J.Str (("fset" | "finc") as t); n; e ] ->
      let p = float_place_ref places (J.idx at 1) n in
      let e = p_rexpr places (J.idx at 2) e in
      if t = "fset" then San.Effect.FSet (p, e) else San.Effect.FInc (p, e)
  | j -> J.fail at "cannot parse marking op %s" (J.short j)

let rec p_effect places at j =
  match j with
  | J.Str "skip" -> San.Effect.Skip
  | J.Obj [ ("ops", v) ] ->
      San.Effect.Ops (J.get_list (p_op places) (J.key at "ops") v)
  | J.Obj [ ("seq", v) ] ->
      San.Effect.Seq (J.get_list (p_effect places) (J.key at "seq") v)
  | J.Obj (("if", c) :: rest) -> (
      let c = p_cond places (J.key at "if") c in
      match rest with
      | [ ("then", t) ] ->
          San.Effect.If
            (c, p_effect places (J.key at "then") t, San.Effect.Skip)
      | [ ("then", t); ("else", e) ] ->
          San.Effect.If
            ( c,
              p_effect places (J.key at "then") t,
              p_effect places (J.key at "else") e )
      | _ ->
          J.fail at "an \"if\" effect needs \"then\" and an optional \"else\"")
  | J.Obj [ ("pick", v) ] ->
      let branch at = function
        | J.Arr [ c; e ] ->
            (p_cond places (J.idx at 0) c, p_effect places (J.idx at 1) e)
        | j ->
            J.fail at "expected a [condition, effect] pair, got %s" (J.short j)
      in
      San.Effect.Pick (J.get_list branch (J.key at "pick") v)
  | j -> J.fail at "cannot parse effect %s" (J.short j)

let p_dist places at j =
  let kvs = J.get_obj at j in
  let r = J.field (p_rexpr places) at kvs in
  match J.field J.get_str at kvs "kind" with
  | "exponential" -> San.Activity.DExp (r "rate")
  | "deterministic" -> San.Activity.DDet (r "delay")
  | "uniform" -> San.Activity.DUniform (r "lo", r "hi")
  | "erlang" -> San.Activity.DErlang (J.field J.get_int at kvs "k", r "rate")
  | "gamma" -> San.Activity.DGamma (r "shape", r "rate")
  | "weibull" -> San.Activity.DWeibull (r "shape", r "scale")
  | "lognormal" -> San.Activity.DLognormal (r "mu", r "sigma")
  | "normal" -> San.Activity.DNormal (r "mean", r "stddev")
  | k -> J.fail (J.key at "kind") "unknown distribution kind %S" k

let p_timing places at j =
  let kvs = J.get_obj at j in
  match J.field J.get_str at kvs "type" with
  | "instantaneous" -> San.Activity.Instantaneous
  | "timed" ->
      let policy =
        match J.field J.get_str at kvs "policy" with
        | "resample" -> San.Activity.Resample
        | "keep" -> San.Activity.Keep
        | s -> J.fail (J.key at "policy") "unknown reactivation policy %S" s
      in
      let d = J.field (p_dist places) at kvs "dist" in
      San.Activity.Timed
        { dist = San.Activity.dist_fn d; policy; dist_ir = Some d }
  | s -> J.fail (J.key at "type") "unknown timing type %S" s

let p_place b places bounds at j =
  let kvs = J.get_obj at j in
  let name = J.field J.get_str at kvs "name" in
  try
    match J.field J.get_str at kvs "kind" with
    | "int" ->
        let init =
          Option.value (J.opt_field J.get_int at kvs "init") ~default:0
        in
        let p = San.Model.Builder.int_place b ~init name in
        Hashtbl.replace places name (San.Place.P p);
        Option.iter
          (fun n -> bounds := (name, n) :: !bounds)
          (J.opt_field J.get_int at kvs "bound")
    | "float" ->
        let init =
          Option.value (J.opt_field J.get_num at kvs "init") ~default:0.0
        in
        let p = San.Model.Builder.float_place b ~init name in
        Hashtbl.replace places name (San.Place.F p)
    | k -> J.fail (J.key at "kind") "unknown place kind %S" k
  with Invalid_argument msg -> J.fail at "%s" msg

let p_case places at j =
  let kvs = J.get_obj at j in
  let weight = J.field (p_rexpr places) at kvs "weight" in
  San.Activity.make_case ~weight (J.field (p_effect places) at kvs "effect")

let p_activity b places at j =
  let kvs = J.get_obj at j in
  let name = J.field J.get_str at kvs "name" in
  let timing = J.field (p_timing places) at kvs "timing" in
  let guard = J.field (p_cond places) at kvs "guard" in
  let cases = J.field (J.get_list (p_case places)) at kvs "cases" in
  try San.Model.Builder.activity_ir b ~name ~timing ~guard cases
  with Invalid_argument msg -> J.fail at "%s" msg

let p_composition model places at j =
  let activity at j =
    let n = J.get_str at j in
    match San.Model.find_activity model n with
    | _ -> n
    | exception Not_found -> J.fail at "unknown activity %S" n
  in
  let rec node parent_path ~root at j =
    let kvs = J.get_obj at j in
    let label = J.field J.get_str at kvs "label" in
    let path =
      if root then ""
      else if parent_path = "" then label
      else parent_path ^ "." ^ label
    in
    let rep_copies = J.opt_field J.get_int at kvs "rep" in
    let node_places =
      J.field (J.get_list (any_place_ref places)) at kvs "places"
    in
    let activities = J.field (J.get_list activity) at kvs "activities" in
    let children =
      J.field (J.get_list (node path ~root:false)) at kvs "children"
    in
    {
      Compose.path;
      label;
      rep_copies;
      places = node_places;
      activities;
      children;
    }
  in
  node "" ~root:true at j

type loaded = {
  model : San.Model.t;
  composition : Compose.info option;
  bounds : (string * int) list;
  annotations : (string * J.t) list;
}

let decode j =
  let at = "$" in
  let kvs = J.get_obj at j in
  let s = J.field J.get_str at kvs "schema" in
  if s <> schema then
    J.fail (J.key at "schema") "unsupported schema %S (this reader reads %S)" s
      schema;
  let b = San.Model.Builder.create (J.field J.get_str at kvs "name") in
  let places = Hashtbl.create 64 in
  let bounds = ref [] in
  let (_ : unit list) =
    J.field (J.get_list (p_place b places bounds)) at kvs "places"
  in
  let (_ : unit list) =
    J.field (J.get_list (p_activity b places)) at kvs "activities"
  in
  let model =
    try San.Model.Builder.build b
    with Invalid_argument msg -> J.fail at "%s" msg
  in
  {
    model;
    composition = J.opt_field (p_composition model places) at kvs "composition";
    bounds = List.rev !bounds;
    annotations =
      Option.value (J.opt_field J.get_obj at kvs "annotations") ~default:[];
  }

let of_json = J.decode decode

let parse s = Result.bind (J.of_string s) of_json

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> parse s
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Structural diff.                                                   *)
(* ------------------------------------------------------------------ *)

module Diff = struct
  type entry = { at : string; change : string }

  let named at n = Printf.sprintf "%s[%S]" at n

  (* [Some names] when every element is an object with a string "name" —
     the shape of the places and activities arrays, which then match by
     name instead of position. *)
  let named_arr l =
    let name_of = function
      | J.Obj kvs -> (
          match List.assoc_opt "name" kvs with
          | Some (J.Str s) -> Some s
          | _ -> None)
      | _ -> None
    in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | x :: tl -> (
          match name_of x with Some n -> go (n :: acc) tl | None -> None)
    in
    go [] l

  let rec walk acc at a b =
    if a = b then acc
    else
      match (a, b) with
      | J.Obj ka, J.Obj kb ->
          let acc =
            List.fold_left
              (fun acc (k, va) ->
                match List.assoc_opt k kb with
                | Some vb -> walk acc (J.key at k) va vb
                | None ->
                    {
                      at = J.key at k;
                      change = "removed (was " ^ J.short va ^ ")";
                    }
                    :: acc)
              acc ka
          in
          List.fold_left
            (fun acc (k, vb) ->
              if List.mem_assoc k ka then acc
              else { at = J.key at k; change = "added: " ^ J.short vb } :: acc)
            acc kb
      | J.Arr la, J.Arr lb -> (
          match (named_arr la, named_arr lb) with
          | Some na, Some nb ->
              let pa = List.combine na la and pb = List.combine nb lb in
              let acc =
                List.fold_left
                  (fun acc (n, va) ->
                    match List.assoc_opt n pb with
                    | Some vb -> walk acc (named at n) va vb
                    | None ->
                        {
                          at = named at n;
                          change = "removed (was " ^ J.short va ^ ")";
                        }
                        :: acc)
                  acc pa
              in
              let acc =
                List.fold_left
                  (fun acc (n, vb) ->
                    if List.mem_assoc n pa then acc
                    else { at = named at n; change = "added: " ^ J.short vb }
                         :: acc)
                  acc pb
              in
              let ca = List.filter (fun n -> List.mem n nb) na in
              let cb = List.filter (fun n -> List.mem n na) nb in
              if ca <> cb then { at; change = "order changed" } :: acc else acc
          | _ ->
              let rec go acc i la lb =
                match (la, lb) with
                | [], [] -> acc
                | va :: ta, vb :: tb ->
                    go (walk acc (J.idx at i) va vb) (i + 1) ta tb
                | va :: ta, [] ->
                    go
                      ({
                         at = J.idx at i;
                         change = "removed (was " ^ J.short va ^ ")";
                       }
                      :: acc)
                      (i + 1) ta []
                | [], vb :: tb ->
                    go
                      ({ at = J.idx at i; change = "added: " ^ J.short vb }
                      :: acc)
                      (i + 1) [] tb
              in
              go acc 0 la lb)
      | _ ->
          { at; change = "changed: " ^ J.short a ^ " -> " ^ J.short b } :: acc

  let diff a b = List.rev (walk [] "$" a b)

  let pp ppf entries =
    List.iter (fun e -> Format.fprintf ppf "%s: %s@." e.at e.change) entries

  let to_json entries =
    J.Arr
      (List.map
         (fun e ->
           J.Obj [ ("path", J.Str e.at); ("change", J.Str e.change) ])
         entries)
end
