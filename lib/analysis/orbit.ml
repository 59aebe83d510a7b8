module E = San.Effect
module A = San.Activity
module P = San.Place
module J = Report.Json

type orbit = {
  ob_members : int list;
  ob_int_slots : int array array;
  ob_float_slots : int array array;
}

type break_ = { bk_copy_a : int; bk_copy_b : int; bk_reason : string }

type family = {
  fa_path : string;
  fa_copies : int;
  fa_depth : int;
  fa_orbits : orbit list;
  fa_witnesses : (int * int) list;
  fa_breaks : break_ list;
}

type report = {
  families : family list;
  pure : bool;
  blockers : string list;
  n_int : int;
  n_float : int;
}

let truncate n s = if String.length s <= n then s else String.sub s 0 n ^ "..."

(* Text on one line: each newline and the indentation after it become
   one space. *)
let one_line s =
  let b = Buffer.create (String.length s) in
  let indent = ref false in
  String.iter
    (fun ch ->
      if ch = '\n' then begin
        Buffer.add_char b ' ';
        indent := true
      end
      else if not (!indent && ch = ' ') then begin
        Buffer.add_char b ch;
        indent := false
      end)
    s;
  Buffer.contents b

(* One-line excerpts of two differing renderings around their first
   differing character, so the reader sees the difference even past
   120 characters. *)
let excerpts x y =
  let width = 120 in
  let n = min (String.length x) (String.length y) in
  let rec first i = if i < n && x.[i] = y.[i] then first (i + 1) else i in
  let start = max 0 (first 0 - (width / 3)) in
  let cut s =
    let len = min width (String.length s - start) in
    (if start > 0 then "..." else "")
    ^ one_line (String.sub s start len)
    ^ if start + len < String.length s then "..." else ""
  in
  (cut x, cut y)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let strip_prefix prefix s =
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    String.sub s pl (String.length s - pl)
  else s

(* ------------------------------------------------------------------ *)
(* Declarative-readability scan: the verification below can only reason
   about what it can read. One closure timing anywhere and every
   certificate would be a guess, so the whole model must be
   declarative. *)

let blockers_of model =
  Array.to_list (San.Model.activities model)
  |> List.filter_map (fun (a : A.t) ->
         match a.A.timing with
         | A.Timed { dist_ir = None; _ } ->
             Some
               (Printf.sprintf "activity %S: closure-only timing distribution"
                  a.A.name)
         | A.Timed { dist_ir = Some _; _ } | A.Instantaneous -> None)
  |> List.sort_uniq Stdlib.compare

(* ------------------------------------------------------------------ *)
(* A copy's structural signature: relative place names with kind and
   initial value, in declaration order, plus relative activity names.
   Two copies with equal signatures hold the same state shape, so their
   sub-state vectors are comparable slot by slot — the slots being the
   marking-array indices of the copy's places, in declaration order. *)

let rec places_of (n : Compose.info) =
  n.Compose.places @ List.concat_map places_of n.Compose.children

let rec acts_of (n : Compose.info) =
  n.Compose.activities @ List.concat_map acts_of n.Compose.children

let copy_signature m0 (copy : Compose.info) =
  let prefix = copy.Compose.path ^ "." in
  let places =
    List.map
      (fun p ->
        match p with
        | P.P ip ->
            Printf.sprintf "I:%s=%d"
              (strip_prefix prefix (P.name ip))
              (San.Marking.get m0 ip)
        | P.F fp ->
            Printf.sprintf "F:%s=%h"
              (strip_prefix prefix (P.fname fp))
              (San.Marking.fget m0 fp))
      (places_of copy)
  in
  (places, List.map (strip_prefix prefix) (acts_of copy))

let copy_slots copy =
  let ints = ref [] and floats = ref [] in
  List.iter
    (fun p ->
      match p with
      | P.P ip -> ints := P.index ip :: !ints
      | P.F fp -> floats := P.findex fp :: !floats)
    (places_of copy);
  (Array.of_list (List.rev !ints), Array.of_list (List.rev !floats))

(* ------------------------------------------------------------------ *)
(* Per-copy parameter signature: every Ctx.note binding in the copy's
   subtree, rendered relative to the copy root. The initial coloring of
   the refinement — copies with different parameters never share an
   orbit (and the first differing binding names the A018 reason). *)

let rec params_nodes (n : Compose.info) =
  List.map (fun (k, v) -> (n.Compose.path, k, v)) n.Compose.params
  @ List.concat_map params_nodes n.Compose.children

let params_sig (copy : Compose.info) =
  let prefix = copy.Compose.path ^ "." in
  List.map
    (fun (p, k, v) ->
      let rel = if p = copy.Compose.path then "" else strip_prefix prefix p in
      Printf.sprintf "%s:%s=%s" rel k v)
    (params_nodes copy)

(* ------------------------------------------------------------------ *)
(* Renaming: substitute place descriptors throughout an IR term. The
   substitution holds only the swapped slots; everything else maps to
   itself. Renamed descriptors are the partner copy's own places, so the
   shapes below compare renamed-vs-identity as values. *)

type sub = { si : (int, P.t) Hashtbl.t; sf : (int, P.fl) Hashtbl.t }

let id_sub = { si = Hashtbl.create 1; sf = Hashtbl.create 1 }

let map_ip sub p =
  match Hashtbl.find_opt sub.si (P.index p) with Some q -> q | None -> p

let map_fp sub p =
  match Hashtbl.find_opt sub.sf (P.findex p) with Some q -> q | None -> p

let rec r_ie sub (e : E.iexpr) : E.iexpr =
  match e with
  | E.Int _ -> e
  | E.Mark p -> E.Mark (map_ip sub p)
  | E.Add (a, b) -> E.Add (r_ie sub a, r_ie sub b)
  | E.Sub (a, b) -> E.Sub (r_ie sub a, r_ie sub b)
  | E.Mul (a, b) -> E.Mul (r_ie sub a, r_ie sub b)
  | E.Ind c -> E.Ind (r_cond sub c)

and r_cond sub (c : E.cond) : E.cond =
  match c with
  | E.Const _ -> c
  | E.Cmp (a, rel, b) -> E.Cmp (r_ie sub a, rel, r_ie sub b)
  | E.All cs -> E.All (List.map (r_cond sub) cs)
  | E.Any cs -> E.Any (List.map (r_cond sub) cs)
  | E.Not c -> E.Not (r_cond sub c)

let rec r_fe sub (e : E.fexpr) : E.fexpr =
  match e with
  | E.Flt _ -> e
  | E.FMark p -> E.FMark (map_fp sub p)
  | E.OfInt i -> E.OfInt (r_ie sub i)
  | E.FAdd (a, b) -> E.FAdd (r_fe sub a, r_fe sub b)
  | E.FSub (a, b) -> E.FSub (r_fe sub a, r_fe sub b)
  | E.FMul (a, b) -> E.FMul (r_fe sub a, r_fe sub b)
  | E.FDiv (a, b) -> E.FDiv (r_fe sub a, r_fe sub b)

let rec r_re sub (r : E.rexpr) : E.rexpr =
  match r with
  | E.RConst _ -> r
  | E.RExpr f -> E.RExpr (r_fe sub f)
  | E.RIf (c, a, b) -> E.RIf (r_cond sub c, r_re sub a, r_re sub b)

let r_op sub (op : E.op) : E.op =
  match op with
  | E.Set (p, e) -> E.Set (map_ip sub p, r_ie sub e)
  | E.Inc (p, e) -> E.Inc (map_ip sub p, r_ie sub e)
  | E.FSet (p, e) -> E.FSet (map_fp sub p, r_fe sub e)
  | E.FInc (p, e) -> E.FInc (map_fp sub p, r_fe sub e)

let rec r_eff sub (t : E.t) : E.t =
  match t with
  | E.Skip -> E.Skip
  | E.Ops ops -> E.Ops (List.map (r_op sub) ops)
  | E.Seq ts -> E.Seq (List.map (r_eff sub) ts)
  | E.If (c, a, b) -> E.If (r_cond sub c, r_eff sub a, r_eff sub b)
  | E.Pick bs -> E.Pick (List.map (fun (c, t) -> (r_cond sub c, r_eff sub t)) bs)

(* ------------------------------------------------------------------ *)
(* Normalization: canonicalize commutative structure so that two terms
   written in different (but equivalent) orders compare equal.
   Only exactly-semantics-preserving rewrites are applied:

   - integer [Add]/[Mul] chains are flattened and sorted (exact);
   - [All]/[Any] conjunct lists are flattened and sorted (exact);
   - float [FAdd]/[FMul] swap their two operands into canonical order
     (IEEE-754 + and * are commutative bit-for-bit) but chains are
     NEVER reassociated — a verified rate is the bit-identical float
     program, which the lumped-vs-unlumped measure gates rely on;
   - [Pick] branches are order-free by semantics and sorted;
   - [Seq] is flattened and [Skip] dropped;
   - an [Ops] block is sorted only when its ops are pairwise
     independent (no op writes a place another op reads or writes) —
     otherwise journal order matters and is preserved. *)

let rec flat_add e acc =
  match e with E.Add (a, b) -> flat_add a (flat_add b acc) | e -> e :: acc

let rec flat_mul e acc =
  match e with E.Mul (a, b) -> flat_mul a (flat_mul b acc) | e -> e :: acc

let rebuild mk = function
  | [] -> assert false
  | x :: rest -> List.fold_left mk x rest

let rec n_ie (e : E.iexpr) : E.iexpr =
  match e with
  | E.Int _ | E.Mark _ -> e
  | E.Add _ ->
      flat_add e [] |> List.map n_ie
      |> List.sort Stdlib.compare
      |> rebuild (fun a b -> E.Add (a, b))
  | E.Mul _ ->
      flat_mul e [] |> List.map n_ie
      |> List.sort Stdlib.compare
      |> rebuild (fun a b -> E.Mul (a, b))
  | E.Sub (a, b) -> E.Sub (n_ie a, n_ie b)
  | E.Ind c -> E.Ind (n_cond c)

and n_cond (c : E.cond) : E.cond =
  let rec flat_all cs =
    List.concat_map (function E.All cs -> flat_all cs | c -> [ c ]) cs
  in
  let rec flat_any cs =
    List.concat_map (function E.Any cs -> flat_any cs | c -> [ c ]) cs
  in
  match c with
  | E.Const _ -> c
  | E.Cmp (a, rel, b) -> E.Cmp (n_ie a, rel, n_ie b)
  | E.All cs -> E.All (flat_all cs |> List.map n_cond |> List.sort Stdlib.compare)
  | E.Any cs -> E.Any (flat_any cs |> List.map n_cond |> List.sort Stdlib.compare)
  | E.Not c -> E.Not (n_cond c)

let comm mk a b = if Stdlib.compare a b <= 0 then mk a b else mk b a

let rec n_fe (e : E.fexpr) : E.fexpr =
  match e with
  | E.Flt _ | E.FMark _ -> e
  | E.OfInt i -> E.OfInt (n_ie i)
  | E.FAdd (a, b) -> comm (fun a b -> E.FAdd (a, b)) (n_fe a) (n_fe b)
  | E.FMul (a, b) -> comm (fun a b -> E.FMul (a, b)) (n_fe a) (n_fe b)
  | E.FSub (a, b) -> E.FSub (n_fe a, n_fe b)
  | E.FDiv (a, b) -> E.FDiv (n_fe a, n_fe b)

let rec n_re (r : E.rexpr) : E.rexpr =
  match r with
  | E.RConst _ -> r
  | E.RExpr f -> E.RExpr (n_fe f)
  | E.RIf (c, a, b) -> E.RIf (n_cond c, n_re a, n_re b)

let n_op (op : E.op) : E.op =
  match op with
  | E.Set (p, e) -> E.Set (p, n_ie e)
  | E.Inc (p, e) -> E.Inc (p, n_ie e)
  | E.FSet (p, e) -> E.FSet (p, n_fe e)
  | E.FInc (p, e) -> E.FInc (p, n_fe e)

let independent_ops ops =
  let rw op =
    let t = E.Ops [ op ] in
    (E.static_reads t, E.static_writes t)
  in
  let rws = List.mapi (fun i op -> (i, rw op)) ops in
  let disjoint a b = List.for_all (fun x -> not (List.mem x b)) a in
  List.for_all
    (fun (i, (_, wi)) ->
      List.for_all
        (fun (j, (rj, wj)) -> i = j || (disjoint wi rj && disjoint wi wj))
        rws)
    rws

let rec n_eff (t : E.t) : E.t =
  match t with
  | E.Skip -> E.Skip
  | E.Ops ops ->
      let ops = List.map n_op ops in
      let ops = if independent_ops ops then List.sort Stdlib.compare ops else ops in
      E.Ops ops
  | E.Seq ts -> (
      let parts =
        List.concat_map
          (fun t ->
            match n_eff t with E.Skip -> [] | E.Seq inner -> inner | t -> [ t ])
          ts
      in
      match parts with [] -> E.Skip | [ t ] -> t | parts -> E.Seq parts)
  | E.If (c, a, b) -> E.If (n_cond c, n_eff a, n_eff b)
  | E.Pick bs ->
      E.Pick
        (List.map (fun (c, t) -> (n_cond c, n_eff t)) bs
        |> List.sort Stdlib.compare)

(* ------------------------------------------------------------------ *)
(* Shapes: an activity's renamed-and-normalized content as IR values
   (the activity's own name is deliberately excluded; the name
   correspondence is checked by the partner lookup in [verify]). Two
   shapes are equal iff [Stdlib.compare] returns 0, so every float
   constant is compared as a float, never through a printout. *)

type shape = {
  timing : A.policy option;  (** [None]: instantaneous *)
  distribution : string * E.rexpr list;
  guard : E.cond;
  cases : (E.rexpr * E.t) list;
}

let shape_of sub (a : A.t) =
  let rename_re r = n_re (r_re sub r) in
  let timing, distribution =
    match a.A.timing with
    | A.Instantaneous -> (None, ("-", []))
    | A.Timed { policy; dist_ir = Some d; _ } ->
        let family, params = A.dist_params d in
        (Some policy, (family, List.map rename_re params))
    | A.Timed { dist_ir = None; _ } ->
        (* [analyse] reads the shapes of pure models only. *)
        assert false
  in
  {
    timing;
    distribution;
    guard = n_cond (r_cond sub a.A.guard);
    cases =
      Array.to_list a.A.cases
      |> List.map (fun (c : A.case) ->
             (rename_re c.A.weight_ir, n_eff (r_eff sub c.A.effect)))
      |> List.sort Stdlib.compare;
  }

(* ------------------------------------------------------------------ *)
(* Reasons: the first pair of differing sub-terms of two unequal shape
   components, printed on one line. The walk descends while both sides
   have the same constructor with a body ([Seq]/[Ops]/[If]/[Pick],
   [All]/[Any]/[Not], [RIf]) and prints the pair where they part. *)

let same x y = Stdlib.compare x y = 0

(* The first position at which two lists differ, [None] standing for
   the side that ran out. *)
let rec first_diff xs ys =
  match (xs, ys) with
  | [], [] -> None
  | x :: xs', y :: ys' ->
      if same x y then first_diff xs' ys' else Some (Some x, Some y)
  | x :: _, [] -> Some (Some x, None)
  | [], y :: _ -> Some (None, Some y)

let missing show = function Some v -> show v | None -> "<missing>"

(* [excerpts] joins the lines the printer breaks. *)
let render pp v = Format.asprintf "%a" pp v

let pair pp x y = excerpts (render pp x) (render pp y)

(* [xs] and [ys] are unequal, so they differ somewhere. *)
let d_list d pp xs ys =
  match first_diff xs ys with
  | Some (Some x, Some y) -> d x y
  | Some (x, y) -> excerpts (missing (render pp) x) (missing (render pp) y)
  | None -> assert false

let rec d_cond (x : E.cond) (y : E.cond) =
  match (x, y) with
  | E.All xs, E.All ys | E.Any xs, E.Any ys -> d_list d_cond E.pp_cond xs ys
  | E.Not x, E.Not y -> d_cond x y
  | _ -> pair E.pp_cond x y

let rec d_rexpr (x : E.rexpr) (y : E.rexpr) =
  match (x, y) with
  | E.RIf (c, a, b), E.RIf (c', a', b') ->
      if not (same c c') then d_cond c c'
      else if not (same a a') then d_rexpr a a'
      else d_rexpr b b'
  | _ -> pair E.pp_rexpr x y

let pp_branch ppf (c, t) = Format.fprintf ppf "%a -> %a" E.pp_cond c E.pp t

let rec d_eff (x : E.t) (y : E.t) =
  match (x, y) with
  | E.Seq xs, E.Seq ys -> d_list d_eff E.pp xs ys
  | E.Ops xs, E.Ops ys -> d_list (pair E.pp_op) E.pp_op xs ys
  | E.If (c, a, b), E.If (c', a', b') ->
      if not (same c c') then d_cond c c'
      else if not (same a a') then d_eff a a'
      else d_eff b b'
  | E.Pick xs, E.Pick ys -> d_list d_branch pp_branch xs ys
  | _ -> pair E.pp x y

and d_branch (c, a) (c', a') = if same c c' then d_eff a a' else d_cond c c'

let timing_name = function
  | None -> "instantaneous"
  | Some A.Keep -> "timed/keep"
  | Some A.Resample -> "timed/resample"

let pp_case ppf (w, t) = Format.fprintf ppf "w=%a; eff=%a" E.pp_rexpr w E.pp t

let d_case (w, t) (w', t') = if same w w' then d_eff t t' else d_rexpr w w'

(* The first differing component of two unequal shapes and its first
   differing sub-terms. *)
let shape_diff x y =
  if not (same x.timing y.timing) then
    ("timing", (timing_name x.timing, timing_name y.timing))
  else if not (same x.distribution y.distribution) then
    let (fx, px), (fy, py) = (x.distribution, y.distribution) in
    ( "distribution",
      if fx <> fy then (fx, fy) else d_list d_rexpr E.pp_rexpr px py )
  else if not (same x.guard y.guard) then ("guard", d_cond x.guard y.guard)
  else ("cases", d_list d_case pp_case x.cases y.cases)

(* ------------------------------------------------------------------ *)
(* Verifying one copy transposition (r c): rename every activity of the
   whole model under the swap and require each renamed shape to equal
   the identity shape of its name-mapped partner. Activities under
   neither copy map to themselves, so a parent-level activity reading
   the two copies asymmetrically fails here (and is named). Stricter
   than a bare multiset comparison — the name correspondence is part of
   the certificate — and never unsound. Nothing is printed unless a
   shape differs. *)

let verify model id_shapes sub ~rpath ~cpath =
  let swap_prefix a b name =
    let ap = a ^ "." in
    if starts_with ~prefix:ap name then
      b ^ "." ^ String.sub name (String.length ap) (String.length name - String.length ap)
    else name
  in
  let partner name =
    let mapped = swap_prefix rpath cpath name in
    if mapped <> name then mapped else swap_prefix cpath rpath name
  in
  let exception Break of string in
  try
    Array.iter
      (fun (a : A.t) ->
        let pname = partner a.A.name in
        match Hashtbl.find_opt id_shapes pname with
        | None ->
            raise
              (Break
                 (Printf.sprintf "activity %S has no counterpart %S" a.A.name
                    pname))
        | Some expected ->
            let got = shape_of sub a in
            if not (same got expected) then begin
              let comp, (mine, theirs) = shape_diff got expected in
              raise
                (Break
                   (Printf.sprintf "activity %S %s: %s differs (%s vs %s)"
                      a.A.name
                      (if pname = a.A.name then
                         Printf.sprintf
                           "is not invariant under swapping copies %s and %s"
                           rpath cpath
                       else Printf.sprintf "is not exchangeable with %S" pname)
                      comp mine theirs))
            end)
      (San.Model.activities model);
    Ok ()
  with Break r -> Error r

(* ------------------------------------------------------------------ *)

let transposition_sub int_by_index float_by_index (ir, fr) (ic, fc) =
  let si = Hashtbl.create 16 and sf = Hashtbl.create 16 in
  Array.iteri
    (fun k a ->
      let b = ic.(k) in
      if a <> b then begin
        Hashtbl.replace si a (Hashtbl.find int_by_index b);
        Hashtbl.replace si b (Hashtbl.find int_by_index a)
      end)
    ir;
  Array.iteri
    (fun k a ->
      let b = fc.(k) in
      if a <> b then begin
        Hashtbl.replace sf a (Hashtbl.find float_by_index b);
        Hashtbl.replace sf b (Hashtbl.find float_by_index a)
      end)
    fr;
  { si; sf }

let sig_diff_reason pa pb (pl_a, acts_a) (pl_b, acts_b) =
  let detail =
    match first_diff pl_a pl_b with
    | Some (x, y) ->
        Printf.sprintf "place layout differs (%s vs %s)" (missing Fun.id x)
          (missing Fun.id y)
    | None -> (
        match first_diff acts_a acts_b with
        | Some (x, y) ->
            Printf.sprintf "activity set differs (%s vs %s)" (missing Fun.id x)
              (missing Fun.id y)
        | None -> "structural signature differs")
  in
  Printf.sprintf "copy %s vs %s: %s" pa pb detail

let params_diff_reason pa pb la lb =
  match first_diff la lb with
  | Some (x, y) ->
      Printf.sprintf "copy %s vs %s: parameter differs (%s vs %s)" pa pb
        (missing Fun.id x) (missing Fun.id y)
  | None -> Printf.sprintf "copy %s vs %s: parameters differ" pa pb

let analyse model (root : Compose.info) =
  let blockers = blockers_of model in
  let pure = blockers = [] in
  let ints = San.Model.places model in
  let floats = San.Model.float_places model in
  let int_by_index = Hashtbl.create 64 in
  let float_by_index = Hashtbl.create 64 in
  Array.iter (fun p -> Hashtbl.replace int_by_index (P.index p) p) ints;
  Array.iter (fun p -> Hashtbl.replace float_by_index (P.findex p) p) floats;
  let id_shapes = Hashtbl.create 64 in
  if pure then
    Array.iter
      (fun (a : A.t) -> Hashtbl.replace id_shapes a.A.name (shape_of id_sub a))
      (San.Model.activities model);
  let m0 = San.Model.initial_marking model in
  let families = ref [] in
  let rec walk depth (n : Compose.info) =
    List.iter
      (fun (label, members) ->
        match members with
        | [] | [ _ ] -> ()
        | _ ->
            let fa_path =
              if n.Compose.path = "" then label
              else n.Compose.path ^ "." ^ label
            in
            let members = Array.of_list members in
            let ncopies = Array.length members in
            let sigs = Array.map (copy_signature m0) members in
            let slots = Array.map copy_slots members in
            let prms = Array.map params_sig members in
            let orbits : (int * int list ref) list ref = ref [] in
            let witnesses = ref [] and breaks = ref [] in
            for c = 0 to ncopies - 1 do
              if not pure then orbits := !orbits @ [ (c, ref [ c ]) ]
              else begin
                let first_reason = ref None in
                let rec try_join = function
                  | [] -> false
                  | (r, ms) :: rest ->
                      let fail reason =
                        if !first_reason = None then
                          first_reason := Some (r, reason);
                        try_join rest
                      in
                      if sigs.(r) <> sigs.(c) then
                        fail
                          (sig_diff_reason members.(r).Compose.path
                             members.(c).Compose.path sigs.(r) sigs.(c))
                      else if prms.(r) <> prms.(c) then
                        fail
                          (params_diff_reason members.(r).Compose.path
                             members.(c).Compose.path prms.(r) prms.(c))
                      else begin
                        let sub =
                          transposition_sub int_by_index float_by_index
                            slots.(r) slots.(c)
                        in
                        match
                          verify model id_shapes sub
                            ~rpath:members.(r).Compose.path
                            ~cpath:members.(c).Compose.path
                        with
                        | Ok () ->
                            ms := c :: !ms;
                            witnesses := (r, c) :: !witnesses;
                            true
                        | Error reason -> fail reason
                      end
                in
                if not (try_join !orbits) then begin
                  orbits := !orbits @ [ (c, ref [ c ]) ];
                  match !first_reason with
                  | Some (r, reason) ->
                      breaks :=
                        { bk_copy_a = r; bk_copy_b = c; bk_reason = reason }
                        :: !breaks
                  | None -> ()
                end
              end
            done;
            let fa_orbits =
              List.map
                (fun (_, ms) ->
                  let mem = List.sort Int.compare !ms in
                  {
                    ob_members = mem;
                    ob_int_slots =
                      Array.of_list (List.map (fun c -> fst slots.(c)) mem);
                    ob_float_slots =
                      Array.of_list (List.map (fun c -> snd slots.(c)) mem);
                  })
                !orbits
            in
            families :=
              {
                fa_path;
                fa_copies = ncopies;
                fa_depth = depth;
                fa_orbits;
                fa_witnesses = List.rev !witnesses;
                fa_breaks = List.rev !breaks;
              }
              :: !families)
      (Compose.rep_families n);
    List.iter (walk (depth + 1)) n.Compose.children
  in
  walk 0 root;
  let families =
    List.rev !families
    |> List.stable_sort (fun a b -> Int.compare b.fa_depth a.fa_depth)
  in
  {
    families;
    pure;
    blockers;
    n_int = Array.length ints;
    n_float = Array.length floats;
  }

(* ------------------------------------------------------------------ *)

let canon report (ints0, floats0) =
  let ints = Array.copy ints0 and floats = Array.copy floats0 in
  List.iter
    (fun fam ->
      List.iter
        (fun ob ->
          let k = Array.length ob.ob_int_slots in
          if k > 1 then begin
            let subs =
              Array.init k (fun m ->
                  ( Array.map (fun i -> ints.(i)) ob.ob_int_slots.(m),
                    Array.map (fun i -> floats.(i)) ob.ob_float_slots.(m) ))
            in
            Array.sort Stdlib.compare subs;
            Array.iteri
              (fun m (iv, fv) ->
                Array.iteri (fun j v -> ints.(ob.ob_int_slots.(m).(j)) <- v) iv;
                Array.iteri
                  (fun j v -> floats.(ob.ob_float_slots.(m).(j)) <- v)
                  fv)
              subs
          end)
        fam.fa_orbits)
    report.families;
  (ints, floats)

let members_str ms = String.concat "," (List.map string_of_int ms)

let check_canon report f =
  let out = ref [] in
  List.iter
    (fun fam ->
      match fam.fa_orbits with
      | [] | [ _ ] -> ()
      | o0 :: rest ->
          let bump o =
            let ints = Array.make report.n_int 0 in
            let floats = Array.make report.n_float 0.0 in
            if Array.length o.ob_int_slots.(0) > 0 then
              ints.(o.ob_int_slots.(0).(0)) <- 1
            else if Array.length o.ob_float_slots.(0) > 0 then
              floats.(o.ob_float_slots.(0).(0)) <- 1.0;
            (ints, floats)
          in
          List.iter
            (fun ok ->
              let k0 = bump o0 and k1 = bump ok in
              if k0 <> k1 && f k0 = f k1 then
                out :=
                  Diagnostic.v ~code:Diagnostic.unsound_canon
                    ~severity:Diagnostic.Error
                    ~source:(Diagnostic.Composition fam.fa_path)
                    (Printf.sprintf
                       "canonicalization merges copy %d (orbit {%s}) with copy %d (orbit {%s}): the orbit refinement distinguishes them, so the quotient would be unsound"
                       (List.hd o0.ob_members)
                       (members_str o0.ob_members)
                       (List.hd ok.ob_members)
                       (members_str ok.ob_members))
                  :: !out)
            rest)
    report.families;
  List.sort Diagnostic.compare !out

(* ------------------------------------------------------------------ *)

let diagnostics report =
  let ds =
    List.concat_map
      (fun fam ->
        let orbit_str =
          String.concat " "
            (List.map (fun o -> "{" ^ members_str o.ob_members ^ "}") fam.fa_orbits)
        in
        let wit =
          match fam.fa_witnesses with
          | [] -> ""
          | ws ->
              "; witnesses "
              ^ String.concat ""
                  (List.map (fun (a, b) -> Printf.sprintf "(%d %d)" a b) ws)
        in
        let n = List.length fam.fa_orbits in
        let head =
          Diagnostic.v ~code:Diagnostic.orbit_report ~severity:Diagnostic.Info
            ~source:(Diagnostic.Composition fam.fa_path)
            (Printf.sprintf "%d orbit%s over %d copies: %s%s" n
               (if n = 1 then "" else "s")
               fam.fa_copies orbit_str wit)
        in
        let breaks =
          List.map
            (fun b ->
              Diagnostic.v ~code:Diagnostic.broken_symmetry
                ~severity:Diagnostic.Warning
                ~source:(Diagnostic.Composition fam.fa_path)
                (Printf.sprintf "copies %d and %d are not exchangeable: %s"
                   b.bk_copy_a b.bk_copy_b b.bk_reason))
            fam.fa_breaks
        in
        let impure =
          if report.pure then []
          else
            [
              Diagnostic.v ~code:Diagnostic.broken_symmetry
                ~severity:Diagnostic.Warning
                ~source:(Diagnostic.Composition fam.fa_path)
                (Printf.sprintf
                   "copies cannot be verified exchangeable: the model is not fully declarative (%s)"
                   (truncate 200 (String.concat "; " report.blockers)));
            ]
        in
        (head :: breaks) @ impure)
      report.families
  in
  List.sort Diagnostic.compare ds

let to_json report =
  J.Obj
    [
      ("schema", J.Str "itua-orbits/1");
      ("pure", J.Bool report.pure);
      ("blockers", J.Arr (List.map (fun s -> J.Str s) report.blockers));
      ( "families",
        J.Arr
          (List.map
             (fun fam ->
               J.Obj
                 [
                   ("family", J.Str fam.fa_path);
                   ("copies", J.int fam.fa_copies);
                   ("depth", J.int fam.fa_depth);
                   ( "orbits",
                     J.Arr
                       (List.map
                          (fun o -> J.Arr (List.map J.int o.ob_members))
                          fam.fa_orbits) );
                   ( "witnesses",
                     J.Arr
                       (List.map
                          (fun (a, b) -> J.Arr [ J.int a; J.int b ])
                          fam.fa_witnesses) );
                   ( "breaks",
                     J.Arr
                       (List.map
                          (fun b ->
                            J.Obj
                              [
                                ("copy_a", J.int b.bk_copy_a);
                                ("copy_b", J.int b.bk_copy_b);
                                ("reason", J.Str b.bk_reason);
                              ])
                          fam.fa_breaks) );
                 ])
             report.families) );
    ]
