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

   [env.(i)] is the current symbolic value of int place [i] as a
   polynomial over the pre-traversal marking, or [None] once it became
   untrackable. Reading a [None] place raises [Blowup]. *)

let rec ipol env (e : E.iexpr) : pol =
  match e with
  | E.Int k -> pconst k
  | E.Mark p -> (
      match env.(San.Place.index p) with Some v -> v | None -> raise Blowup)
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
      (match env.(i) with
      | Some v when v = pvar i -> env.(i) <- Some (pconst k)
      | _ -> ())
  | E.All cs -> List.iter (refine env) cs
  | _ -> ()

(* {2 Law drift} *)

type verdict = Proven | Drift of int | Unproven of string

let case_drifts ~n_int ~guard (laws : (int * int) list array) (eff : E.t) :
    verdict array =
  let nl = Array.length laws in
  (* coeffs.(l).(i): law l's coefficient on place i (0 when absent). *)
  let coeffs = Array.make_matrix nl n_int 0 in
  Array.iteri
    (fun l terms -> List.iter (fun (i, k) -> coeffs.(l).(i) <- k) terms)
    laws;
  let zero_drift () = Array.make nl (Some pzero) in
  let dadd d l (p : pol) =
    match d.(l) with
    | None -> ()
    | Some acc -> d.(l) <- (try Some (padd acc p) with Blowup -> None)
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
  let dsum da db =
    Array.init nl (fun l ->
        match (da.(l), db.(l)) with
        | Some a, Some b -> ( try Some (padd a b) with Blowup -> None)
        | _ -> None)
  in
  let apply_op env d (op : E.op) =
    match op with
    | E.Set (p, e) ->
        let i = San.Place.index p in
        let ve = try Some (ipol env e) with Blowup -> None in
        (match (ve, env.(i)) with
        | Some v, Some old ->
            for l = 0 to nl - 1 do
              let k = coeffs.(l).(i) in
              if k <> 0 then dadd d l (pscale k (psub v old))
            done
        | _ ->
            for l = 0 to nl - 1 do
              if coeffs.(l).(i) <> 0 then d.(l) <- None
            done);
        env.(i) <- ve
    | E.Inc (p, e) ->
        let i = San.Place.index p in
        let ve = try Some (ipol env e) with Blowup -> None in
        (match ve with
        | Some v ->
            for l = 0 to nl - 1 do
              let k = coeffs.(l).(i) in
              if k <> 0 then dadd d l (pscale k v)
            done;
            env.(i) <-
              (match env.(i) with
              | Some old -> ( try Some (padd old v) with Blowup -> None)
              | None -> None)
        | None ->
            for l = 0 to nl - 1 do
              if coeffs.(l).(i) <> 0 then d.(l) <- None
            done;
            env.(i) <- None)
    | E.FSet _ | E.FInc _ -> ()
  in
  let join_env env enva envb ic =
    for i = 0 to n_int - 1 do
      if enva.(i) = envb.(i) then env.(i) <- enva.(i)
      else
        env.(i) <-
          (match (ic, enva.(i), envb.(i)) with
          | Some ic, Some va, Some vb -> (
              try
                Some (padd (pmul ic va) (pmul (psub (pconst 1) ic) vb))
              with Blowup -> None)
          | _ -> None)
    done
  in
  let rec go env (eff : E.t) : pol option array =
    match eff with
    | E.Skip -> zero_drift ()
    | E.Ops ops ->
        let d = zero_drift () in
        List.iter (apply_op env d) ops;
        d
    | E.Seq es ->
        List.fold_left (fun acc e -> dsum acc (go env e)) (zero_drift ()) es
    | E.If (c, a, b) ->
        let ic = try Some (cpol env c) with Blowup -> None in
        (match ic with
        | Some p -> (
            (* Statically decided branch: only one side executes. *)
            match pconst_val p with
            | Some 0 -> go env b
            | Some _ -> go env a
            | None ->
                let enva = Array.copy env and envb = Array.copy env in
                refine enva c;
                let da = go enva a and db = go envb b in
                let d = dmerge ic da db in
                join_env env enva envb ic;
                d)
        | None ->
            let enva = Array.copy env and envb = Array.copy env in
            refine enva c;
            let da = go enva a and db = go envb b in
            let d = dmerge None da db in
            join_env env enva envb None;
            d)
    | E.Pick branches ->
        (* The executor chooses uniformly among feasible branches; the
           drift is provable only when every branch drifts identically
           (feasibility cannot be decided statically). *)
        let results =
          List.map
            (fun (c, e) ->
              let envc = Array.copy env in
              refine envc c;
              (envc, go envc e))
            branches
        in
        let d =
          Array.init nl (fun l ->
              match results with
              | [] -> Some pzero
              | (_, d0) :: rest ->
                  if
                    List.for_all
                      (fun (_, dl) -> dl.(l) <> None && dl.(l) = d0.(l))
                      rest
                  then d0.(l)
                  else None)
        in
        for i = 0 to n_int - 1 do
          match results with
          | [] -> ()
          | (env0, _) :: rest ->
              env.(i) <-
                (if List.for_all (fun (e, _) -> e.(i) = env0.(i)) rest then
                   env0.(i)
                 else None)
        done;
        d
  in
  let env = Array.init n_int (fun i -> Some (pvar i)) in
  refine env guard;
  let d = go env eff in
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
   guard and the [If]/[Pick] conditions dominating it. Branches of one
   [If] never see each other's pins; after a join, places written in
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
      pins.(San.Place.index p) <- Some k
  | E.All cs -> List.iter (pin_facts pins) cs
  | _ -> ()

let rec ieval pins (e : E.iexpr) : int option =
  match e with
  | E.Int k -> Some k
  | E.Mark p -> pins.(San.Place.index p)
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

let read_case ~n_int ~guard (eff : E.t) : case_ir =
  let deltas = ref [] in
  let unresolved = Hashtbl.create 8 in
  let float_w = ref false in
  let dead = ref [] in
  let decs = ref [] in
  let emit_ops pins ops =
    (* One atom: the net delta of this [Ops] block, threading pins. *)
    let delta = Hashtbl.create 8 in
    let bump i d =
      Hashtbl.replace delta i (d + Option.value ~default:0 (Hashtbl.find_opt delta i))
    in
    let written = ref [] in
    List.iter
      (fun (op : E.op) ->
        match op with
        | E.Set (p, e) ->
            let i = San.Place.index p in
            written := i :: !written;
            let ev = ieval pins e in
            (match (ev, pins.(i)) with
            | Some v, Some old ->
                bump i (v - old);
                if v - old < 0 then decs := (i, v - old, Some old) :: !decs
            | _ ->
                Hashtbl.remove delta i;
                Hashtbl.replace unresolved i ());
            pins.(i) <- ev
        | E.Inc (p, e) ->
            let i = San.Place.index p in
            written := i :: !written;
            (match ieval pins e with
            | Some v ->
                bump i v;
                if v < 0 then decs := (i, v, pins.(i)) :: !decs;
                pins.(i) <-
                  (match pins.(i) with Some o -> Some (o + v) | None -> None)
            | None ->
                Hashtbl.remove delta i;
                Hashtbl.replace unresolved i ();
                pins.(i) <- None)
        | E.FSet _ | E.FInc _ -> float_w := true)
      ops;
    let row =
      Hashtbl.fold (fun i d acc -> if d = 0 then acc else (i, d) :: acc) delta []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    if row <> [] then deltas := row :: !deltas;
    !written
  in
  let rec walk pins (eff : E.t) : int list =
    match eff with
    | E.Skip -> []
    | E.Ops ops -> emit_ops pins ops
    | E.Seq es ->
        List.concat_map (fun e -> walk pins e) es
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
            let pa = Array.copy pins and pb = Array.copy pins in
            pin_facts pa c;
            let wa = walk pa a and wb = walk pb b in
            let w = wa @ wb in
            List.iter (fun i -> pins.(i) <- None) w;
            w)
    | E.Pick branches ->
        let written = ref [] in
        List.iter
          (fun (c, e) ->
            match ceval pins c with
            | Some false ->
                if e <> E.Skip then
                  dead := ("Pick branch guarded by " ^ short_cond c) :: !dead
            | _ ->
                let pc = Array.copy pins in
                pin_facts pc c;
                written := walk pc e @ !written)
          branches;
        List.iter (fun i -> pins.(i) <- None) !written;
        !written
  in
  let pins = Array.make n_int None in
  pin_facts pins guard;
  let (_ : int list) = walk pins eff in
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
