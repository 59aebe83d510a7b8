module E = San.Effect

(* {2 Canonical polynomials}

   Multivariate polynomials over two kinds of atoms: the pre-traversal
   value of an int place ([AMark]) and the indicator of a canonical
   comparison ([AInd]). Indicators are idempotent (Ind^2 = Ind), which
   monomial multiplication exploits; marking atoms are ordinary
   variables. [All]/[Any]/[Not] are eliminated algebraically
   (product / inclusion-exclusion / 1 - x), so two syntactically
   different spellings of the same boolean structure meet in one
   canonical form and cancel. Growth is capped: any operation whose
   result would exceed [max_monos] monomials raises [Blowup], which
   callers turn into "unproven". *)

exception Blowup

type atom = AMark of int | AInd of ccond
and ccond = CEq of pol | CLt of pol  (* pol = 0 / pol < 0 *)
and mono = atom list (* sorted, AInd-deduplicated *)
and pol = (mono * int) list (* sorted by mono, nonzero coefficients *)

let max_monos = 96

let pzero : pol = []
let pconst k : pol = if k = 0 then [] else [ ([], k) ]
let pvar i : pol = [ ([ AMark i ], 1) ]

let pnorm terms : pol =
  let sorted =
    List.sort (fun (m1, _) (m2, _) -> Stdlib.compare m1 m2) terms
  in
  let rec merge = function
    | [] -> []
    | [ (m, c) ] -> if c = 0 then [] else [ (m, c) ]
    | (m1, c1) :: (m2, c2) :: rest ->
        if m1 = m2 then merge ((m1, c1 + c2) :: rest)
        else if c1 = 0 then merge ((m2, c2) :: rest)
        else (m1, c1) :: merge ((m2, c2) :: rest)
  in
  let r = merge sorted in
  if List.length r > max_monos then raise Blowup;
  r

let padd (a : pol) (b : pol) = pnorm (a @ b)
let pneg (a : pol) : pol = List.map (fun (m, c) -> (m, -c)) a
let psub a b = padd a (pneg b)
let pscale k (a : pol) : pol = if k = 0 then [] else List.map (fun (m, c) -> (m, k * c)) a

(* Monomial product: merge the sorted atom lists, collapsing duplicate
   indicator atoms (idempotence) but keeping repeated marking atoms. *)
let mono_mul (m1 : mono) (m2 : mono) : mono =
  let merged = List.merge Stdlib.compare m1 m2 in
  let rec dedup = function
    | AInd a :: AInd b :: rest when a = b -> dedup (AInd a :: rest)
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  dedup merged

let pmul (a : pol) (b : pol) : pol =
  pnorm
    (List.concat_map
       (fun (m1, c1) -> List.map (fun (m2, c2) -> (mono_mul m1 m2, c1 * c2)) b)
       a)

let pconst_val : pol -> int option = function
  | [] -> Some 0
  | [ ([], c) ] -> Some c
  | _ -> None

(* Indicators of canonical comparisons. Equalities are sign-normalized
   (leading coefficient positive) so [a - b = 0] and [b - a = 0] agree. *)
let ind_eq (d : pol) : pol =
  match pconst_val d with
  | Some 0 -> pconst 1
  | Some _ -> pconst 0
  | None ->
      let d = match d with (_, c0) :: _ when c0 < 0 -> pneg d | _ -> d in
      [ ([ AInd (CEq d) ], 1) ]

let ind_lt (d : pol) : pol =
  match pconst_val d with
  | Some v -> pconst (if v < 0 then 1 else 0)
  | None -> [ ([ AInd (CLt d) ], 1) ]

(* {2 Substitution}

   An environment maps an int place index to its current symbolic value
   as a polynomial over the pre-traversal marking, or to [None] once it
   became untrackable. It holds only the places the walk has written or
   pinned: an absent place still has its pre-traversal value [pvar i].
   The map is persistent, so a branch starts from its parent's map
   without a copy. Reading a [None] place raises [Blowup]. *)

module IM = Map.Make (Int)

let or_unset i = function Some v -> v | None -> Some (pvar i)
let value env i = or_unset i (IM.find_opt i env)

let rec ipol env (e : E.iexpr) : pol =
  match e with
  | E.Int k -> pconst k
  | E.Mark p -> (
      match value env (San.Place.index p) with
      | Some v -> v
      | None -> raise Blowup)
  | E.Add (a, b) -> padd (ipol env a) (ipol env b)
  | E.Sub (a, b) -> psub (ipol env a) (ipol env b)
  | E.Mul (a, b) -> pmul (ipol env a) (ipol env b)
  | E.Ind c -> cpol env c

and cpol env (c : E.cond) : pol =
  match c with
  | E.Const true -> pconst 1
  | E.Const false -> pconst 0
  | E.Cmp (a, rel, b) -> (
      let d = psub (ipol env a) (ipol env b) in
      match rel with
      | E.Eq -> ind_eq d
      | E.Ne -> psub (pconst 1) (ind_eq d)
      | E.Lt -> ind_lt d
      | E.Gt -> ind_lt (pneg d)
      | E.Le -> psub (pconst 1) (ind_lt (pneg d))
      | E.Ge -> psub (pconst 1) (ind_lt d))
  | E.All cs ->
      List.fold_left (fun acc c -> pmul acc (cpol env c)) (pconst 1) cs
  | E.Any cs ->
      psub (pconst 1)
        (List.fold_left
           (fun acc c -> pmul acc (psub (pconst 1) (cpol env c)))
           (pconst 1) cs)
  | E.Not c -> psub (pconst 1) (cpol env c)

(* Entering a branch where [c] holds: pin places the condition fixes
   outright. Only [Mark p = k] (and conjunctions thereof) pin — enough
   for the [pe]-style guards models are built from — and only when the
   place is still at its pre-traversal symbolic value, so a pin can
   never contradict an earlier write. *)
let rec refine env (c : E.cond) =
  match c with
  | E.Cmp (E.Mark p, E.Eq, E.Int k) | E.Cmp (E.Int k, E.Eq, E.Mark p) ->
      let i = San.Place.index p in
      if value env i = Some (pvar i) then IM.add i (Some (pconst k)) env
      else env
  | E.All cs -> List.fold_left refine env cs
  | _ -> env

(* The join of two branch environments: a place keeps a value both
   branches agree on and becomes untrackable otherwise. Only keys of
   the two maps are visited; both extend the parent's map, so most of
   their shared keys are physically equal. *)
let join ea eb =
  IM.merge
    (fun i a b ->
      let va = or_unset i a and vb = or_unset i b in
      Some (if va == vb || va = vb then va else None))
    ea eb

(* {2 Law drift} *)

(* [f a b] on two tracked values; untrackable when either is, or when
   the result blows up. *)
let lift f a b =
  match (a, b) with
  | Some a, Some b -> ( try Some (f a b) with Blowup -> None)
  | _ -> None

type verdict = Proven | Drift of int | Unproven of string

let case_drifts ~guard (laws : (int * int) list array) (eff : E.t) :
    verdict array =
  let nl = Array.length laws in
  (* Place index -> every [(law, coefficient)] weighting it. *)
  let weights = Hashtbl.create 16 in
  Array.iteri
    (fun l terms ->
      List.iter
        (fun (i, k) -> if k <> 0 then Hashtbl.add weights i (l, k))
        terms)
    laws;
  let zero_drift () = Array.make nl (Some pzero) in
  (* Add [k * delta] to every law weighting place [i]; an untrackable
     delta makes those laws underivable. *)
  let drift d i delta =
    List.iter
      (fun (l, k) ->
        d.(l) <- lift (fun acc v -> padd acc (pscale k v)) d.(l) delta)
      (Hashtbl.find_all weights i)
  in
  let dmerge ic da db =
    Array.init nl (fun l ->
        match (da.(l), db.(l)) with
        | Some a, Some b when a = b -> Some a
        | Some a, Some b -> (
            match ic with
            | None -> None
            | Some ic -> (
                try Some (padd (pmul ic a) (pmul (psub (pconst 1) ic) b))
                with Blowup -> None))
        | _ -> None)
  in
  let dsum da db = Array.init nl (fun l -> lift padd da.(l) db.(l)) in
  let apply_op d env (op : E.op) =
    let sym e = try Some (ipol env e) with Blowup -> None in
    match op with
    | E.Set (p, e) ->
        let i = San.Place.index p in
        let v = sym e in
        drift d i (lift psub v (value env i));
        IM.add i v env
    | E.Inc (p, e) ->
        let i = San.Place.index p in
        let v = sym e in
        drift d i v;
        IM.add i (lift padd (value env i) v) env
    | E.FSet _ | E.FInc _ -> env
  in
  let rec go env (eff : E.t) : pol option IM.t * pol option array =
    match eff with
    | E.Skip -> (env, zero_drift ())
    | E.Ops ops ->
        let d = zero_drift () in
        (List.fold_left (apply_op d) env ops, d)
    | E.Seq es ->
        List.fold_left
          (fun (env, acc) e ->
            let env, d = go env e in
            (env, dsum acc d))
          (env, zero_drift ()) es
    | E.If (c, a, b) -> (
        let ic = try Some (cpol env c) with Blowup -> None in
        match Option.map pconst_val ic with
        (* Statically decided branch: only one side executes. *)
        | Some (Some 0) -> go env b
        | Some (Some _) -> go env a
        | _ ->
            let ea, da = go (refine env c) a and eb, db = go env b in
            (join ea eb, dmerge ic da db))
    | E.Pick branches -> (
        (* The executor chooses uniformly among feasible branches; the
           drift is provable only when every branch drifts identically
           (feasibility cannot be decided statically). *)
        match List.map (fun (c, e) -> go (refine env c) e) branches with
        | [] -> (env, zero_drift ())
        | (e0, d0) :: rest ->
            let d =
              Array.init nl (fun l ->
                  let same (_, dl) = dl.(l) <> None && dl.(l) = d0.(l) in
                  if List.for_all same rest then d0.(l) else None)
            in
            (List.fold_left (fun acc (e, _) -> join acc e) e0 rest, d))
  in
  let _, d = go (refine IM.empty guard) eff in
  Array.map
    (function
      | None -> Unproven "symbolic drift not derivable (expression blow-up)"
      | Some p -> (
          match pconst_val p with
          | Some 0 -> Proven
          | Some k -> Drift k
          | None -> Unproven "drift depends on the marking"))
    d

(* {2 Atoms: exact incidence rows}

   A linear traversal (no path multiplication): every [Ops] block yields
   one delta row, evaluated under the integer pins accumulated from the
   guard and the [If]/[Pick] conditions dominating it. Pins are a
   persistent map from int place index to its known value; an absent
   place is unknown. Branches of one [If] start from their parent's
   pins and never see each other's; after a join, places written in
   either branch are unpinned. *)

type case_ir = {
  ci_deltas : (int * int) list list;
  ci_unresolved : int list;
  ci_float : bool;
  ci_dead : string list;
  ci_decs : (int * int * int option) list;
}

let rec pin_facts pins (c : E.cond) =
  match c with
  | E.Cmp (E.Mark p, E.Eq, E.Int k) | E.Cmp (E.Int k, E.Eq, E.Mark p) ->
      IM.add (San.Place.index p) k pins
  | E.All cs -> List.fold_left pin_facts pins cs
  | _ -> pins

let pin i v pins =
  match v with Some v -> IM.add i v pins | None -> IM.remove i pins

let rec ieval pins (e : E.iexpr) : int option =
  match e with
  | E.Int k -> Some k
  | E.Mark p -> IM.find_opt (San.Place.index p) pins
  | E.Add (a, b) -> (
      match (ieval pins a, ieval pins b) with
      | Some x, Some y -> Some (x + y)
      | _ -> None)
  | E.Sub (a, b) -> (
      match (ieval pins a, ieval pins b) with
      | Some x, Some y -> Some (x - y)
      | _ -> None)
  | E.Mul (a, b) -> (
      match (ieval pins a, ieval pins b) with
      | Some x, Some y -> Some (x * y)
      | _ -> None)
  | E.Ind c -> (
      match ceval pins c with
      | Some b -> Some (if b then 1 else 0)
      | None -> None)

and ceval pins (c : E.cond) : bool option =
  match c with
  | E.Const b -> Some b
  | E.Cmp (a, rel, b) -> (
      match (ieval pins a, ieval pins b) with
      | Some x, Some y ->
          Some
            (match rel with
            | E.Eq -> x = y
            | E.Ne -> x <> y
            | E.Lt -> x < y
            | E.Le -> x <= y
            | E.Gt -> x > y
            | E.Ge -> x >= y)
      | _ -> None)
  | E.All cs ->
      let vs = List.map (ceval pins) cs in
      if List.exists (fun v -> v = Some false) vs then Some false
      else if List.for_all (fun v -> v = Some true) vs then Some true
      else None
  | E.Any cs ->
      let vs = List.map (ceval pins) cs in
      if List.exists (fun v -> v = Some true) vs then Some true
      else if List.for_all (fun v -> v = Some false) vs then Some false
      else None
  | E.Not c -> Option.map not (ceval pins c)

let short_cond c =
  let s = Format.asprintf "%a" E.pp_cond c in
  if String.length s > 96 then String.sub s 0 93 ^ "..." else s

let read_case ~guard (eff : E.t) : case_ir =
  let deltas = ref [] in
  let unresolved = Hashtbl.create 8 in
  let float_w = ref false in
  let dead = ref [] in
  let decs = ref [] in
  (* One atom: the net delta of this [Ops] block, threading pins. *)
  let emit_ops pins ops =
    let delta = Hashtbl.create 8 in
    let bump i d =
      Hashtbl.replace delta i (d + Option.value ~default:0 (Hashtbl.find_opt delta i))
    in
    let unresolve i =
      Hashtbl.remove delta i;
      Hashtbl.replace unresolved i ()
    in
    let written = ref [] in
    let pins =
      List.fold_left
        (fun pins (op : E.op) ->
          match op with
          | E.Set (p, e) ->
              let i = San.Place.index p in
              written := i :: !written;
              let ev = ieval pins e in
              (match (ev, IM.find_opt i pins) with
              | Some v, Some old ->
                  bump i (v - old);
                  if v - old < 0 then decs := (i, v - old, Some old) :: !decs
              | _ -> unresolve i);
              pin i ev pins
          | E.Inc (p, e) -> (
              let i = San.Place.index p in
              written := i :: !written;
              let old = IM.find_opt i pins in
              match ieval pins e with
              | Some v ->
                  bump i v;
                  if v < 0 then decs := (i, v, old) :: !decs;
                  pin i (Option.map (( + ) v) old) pins
              | None ->
                  unresolve i;
                  IM.remove i pins)
          | E.FSet _ | E.FInc _ ->
              float_w := true;
              pins)
        pins ops
    in
    let row =
      Hashtbl.fold (fun i d acc -> if d = 0 then acc else (i, d) :: acc) delta []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    if row <> [] then deltas := row :: !deltas;
    (pins, !written)
  in
  (* [walk pins eff] returns the pins after [eff] and the places it
     wrote. *)
  let rec walk pins (eff : E.t) : int IM.t * int list =
    match eff with
    | E.Skip -> (pins, [])
    | E.Ops ops -> emit_ops pins ops
    | E.Seq es ->
        List.fold_left
          (fun (pins, w) e ->
            let pins, we = walk pins e in
            (pins, we @ w))
          (pins, []) es
    | E.If (c, a, b) -> (
        match ceval pins c with
        | Some true ->
            if b <> E.Skip then
              dead := ("else branch of If " ^ short_cond c) :: !dead;
            walk pins a
        | Some false ->
            if a <> E.Skip then
              dead := ("then branch of If " ^ short_cond c) :: !dead;
            walk pins b
        | None ->
            let _, wa = walk (pin_facts pins c) a and _, wb = walk pins b in
            forget pins (wa @ wb))
    | E.Pick branches ->
        let written =
          List.concat_map
            (fun (c, e) ->
              match ceval pins c with
              | Some false ->
                  if e <> E.Skip then
                    dead := ("Pick branch guarded by " ^ short_cond c) :: !dead;
                  []
              | _ -> snd (walk (pin_facts pins c) e))
            branches
        in
        forget pins written
  and forget pins w = (List.fold_left (fun m i -> IM.remove i m) pins w, w) in
  let (_ : int IM.t * int list) = walk (pin_facts IM.empty guard) eff in
  {
    ci_deltas = List.rev !deltas;
    ci_unresolved =
      Hashtbl.fold (fun i () acc -> i :: acc) unresolved []
      |> List.sort Int.compare;
    ci_float = !float_w;
    ci_dead = List.rev !dead;
    ci_decs = List.rev !decs;
  }

(* {2 Set-only value bounds} *)

let set_only_bounds model =
  let n_int = Array.length (San.Model.places model) in
  let bound = Array.make n_int None in
  let max_set = Array.make n_int min_int in
  let spoiled = Array.make n_int false in
  let rec scan (eff : E.t) =
    match eff with
    | E.Skip -> ()
    | E.Ops ops ->
        List.iter
          (fun (op : E.op) ->
            match op with
            | E.Set (p, E.Int k) ->
                let i = San.Place.index p in
                if k > max_set.(i) then max_set.(i) <- k
            | E.Set (p, _) | E.Inc (p, _) ->
                spoiled.(San.Place.index p) <- true
            | E.FSet _ | E.FInc _ -> ())
          ops
    | E.Seq es -> List.iter scan es
    | E.If (_, a, b) ->
        scan a;
        scan b
    | E.Pick branches -> List.iter (fun (_, e) -> scan e) branches
  in
  Array.iter
    (fun (a : San.Activity.t) ->
      Array.iter
        (fun (c : San.Activity.case) -> scan c.San.Activity.effect)
        a.San.Activity.cases)
    (San.Model.activities model);
  let initial = San.Marking.int_snapshot (San.Model.initial_marking model) in
  Array.iteri
    (fun i _ ->
      if not spoiled.(i) then
        bound.(i) <- Some (max initial.(i) (max max_set.(i) initial.(i))))
    bound;
  bound
