type incidence = Exact | Observed

type law = {
  law_name : string;
  law_terms : (San.Place.t * int) list;
}

type mode = {
  act_id : int;
  activity : string;
  case : int;
  label : string;
  delta : (int * int) list;
  float_delta : bool;
}

type flow = { flow_terms : (int * int) list; flow_value : int }
type tflow = (int * int) list

type law_report = {
  lr_name : string;
  lr_terms : (int * int) list;
  lr_value : int;
  lr_violations : (string * int * int) list;
  lr_how : string;
  lr_unproven : (string * int * string) list;
}

type t = {
  incidence : incidence;
  space_mode : Space.mode;
  n_markings : int;
  n_int : int;
  place_names : string array;
  initial : int array;
  modes : mode array;
  fired : bool array;
  active : int list;
  constant : int list;
  rank : int;
  invariant_dim : int;
  p_basis : (int * Rat.t) list list option;
  p_semiflows : flow list;
  t_semiflows : tflow list;
  flows_skipped : string option;
  laws : law_report list;
  observed_max : int array;
  structural_bound : int option array;
  unresolved : int list;
  ir_diags : Diagnostic.t list;
}

exception Invariant_violation of string

let incidence_name = function Exact -> "exact" | Observed -> "observed"

let rec igcd a b = if b = 0 then a else igcd b (a mod b)

(* {2 Mode extraction}

   The delta rows are read off the effect syntax trees: one row per
   guard-specialized [Ops] block ([Symbolic.read_case]).
   No marking is fired. Alongside the rows we collect everything the
   traversal proves statically: unresolved places, per-row completeness
   (for T-semiflow soundness), dead branches (A014) and resolved
   decrements (A015 input, judged later once bounds are known). *)

type exact_extra = {
  ex_unresolved : int list;  (** ascending place indexes *)
  ex_incomplete : bool array;  (** by mode position *)
  ex_dead : Diagnostic.t list;  (** A014 *)
  ex_decs : (string * int * int * int * int option) list;
      (** activity, case, place, delta < 0, guard-pinned prior *)
}

let read_modes (space : Space.t) =
  let model = space.Space.model in
  let acts = San.Model.activities model in
  let n_int =
    Array.length (San.Marking.int_snapshot (San.Model.initial_marking model))
  in
  let fired = Array.make (Array.length acts) false in
  let modes = ref [] in
  let incomplete = ref [] in
  let unresolved = Hashtbl.create 8 in
  let dead = ref [] in
  let decs = ref [] in
  Array.iter
    (fun (a : San.Activity.t) ->
      let n_cases = Array.length a.San.Activity.cases in
      if n_cases > 0 then fired.(a.San.Activity.id) <- true;
      Array.iteri
        (fun case (c : San.Activity.case) ->
          let ci =
            Symbolic.read_case ~n_int ~guard:a.San.Activity.guard
              c.San.Activity.effect
          in
          List.iter
            (fun i -> Hashtbl.replace unresolved i ())
            ci.Symbolic.ci_unresolved;
          List.iter
            (fun msg ->
              dead :=
                Diagnostic.v ~code:Diagnostic.dead_branch
                  ~severity:Diagnostic.Info
                  ~source:(Diagnostic.Activity a.San.Activity.name)
                  (Printf.sprintf "case %d: %s is statically dead" case msg)
                :: !dead)
            ci.Symbolic.ci_dead;
          List.iter
            (fun (i, d, prior) ->
              decs := (a.San.Activity.name, case, i, d, prior) :: !decs)
            ci.Symbolic.ci_decs;
          let base = a.San.Activity.name in
          let base =
            if n_cases > 1 then Printf.sprintf "%s/c%d" base case else base
          in
          let rows =
            match ci.Symbolic.ci_deltas with
            | [] -> [ [] ]  (* keep an empty row so A011 can see the case *)
            | rows -> rows
          in
          let multi = List.length rows > 1 in
          List.iteri
            (fun k delta ->
              let label =
                if multi then Printf.sprintf "%s/a%d" base k else base
              in
              modes :=
                {
                  act_id = a.San.Activity.id;
                  activity = a.San.Activity.name;
                  case;
                  label;
                  delta;
                  float_delta = ci.Symbolic.ci_float;
                }
                :: !modes;
              incomplete := (ci.Symbolic.ci_unresolved <> []) :: !incomplete)
            rows)
        a.San.Activity.cases)
    acts;
  let extra =
    {
      ex_unresolved =
        Hashtbl.fold (fun i () acc -> i :: acc) unresolved []
        |> List.sort Int.compare;
      ex_incomplete = Array.of_list (List.rev !incomplete);
      ex_dead = List.rev !dead;
      ex_decs = List.rev !decs;
    }
  in
  (Array.of_list (List.rev !modes), fired, extra)

(* {2 Rank and rational nullspace basis}

   Sparse rational Gaussian elimination over the mode rows. Rows are
   [(place index, coefficient)] lists, ascending, zero-free. *)

let row_sub_scaled r c p =
  (* [r - c * p], both rows sorted by index. *)
  let rec go r p =
    match (r, p) with
    | [], [] -> []
    | r, [] -> r
    | [], (j, v) :: p -> (j, Rat.neg (Rat.mul c v)) :: go [] p
    | (i, a) :: r', (j, v) :: p' ->
        if i < j then (i, a) :: go r' p
        else if j < i then (j, Rat.neg (Rat.mul c v)) :: go r p'
        else
          let x = Rat.sub a (Rat.mul c v) in
          if Rat.is_zero x then go r' p' else (i, x) :: go r' p'
  in
  go r p

let normalize_row = function
  | [] -> []
  | (_, lead) :: _ as row -> List.map (fun (i, x) -> (i, Rat.div x lead)) row

let rank_and_basis ~max_basis_places ~active rows =
  let pivots = Hashtbl.create 64 in
  let rank = ref 0 in
  let rec reduce row =
    match row with
    | [] -> ()
    | (j, c) :: _ -> (
        match Hashtbl.find_opt pivots j with
        | Some prow -> reduce (row_sub_scaled row c prow)
        | None ->
            Hashtbl.add pivots j (normalize_row row);
            incr rank)
  in
  List.iter
    (fun delta ->
      reduce (List.map (fun (i, d) -> (i, Rat.of_int d)) delta))
    rows;
  let rank = !rank in
  let basis =
    if List.length active > max_basis_places then None
    else begin
      let pcols =
        Hashtbl.fold (fun k _ acc -> k :: acc) pivots []
        |> List.sort Int.compare |> Array.of_list
      in
      let rows = Array.map (Hashtbl.find pivots) pcols in
      (* Back-substitute to reduced row-echelon form. *)
      for i = Array.length rows - 1 downto 0 do
        for k = 0 to i - 1 do
          match List.assoc_opt pcols.(i) rows.(k) with
          | None -> ()
          | Some c -> rows.(k) <- row_sub_scaled rows.(k) c rows.(i)
        done
      done;
      let is_pivot i = Array.exists (fun p -> p = i) pcols in
      let free = List.filter (fun i -> not (is_pivot i)) active in
      (* One basis vector of the left nullspace per free column: the
         invariant y with y_free = 1 and y_pivot = -entry. *)
      Some
        (List.map
           (fun f ->
             let terms = ref [ (f, Rat.one) ] in
             Array.iteri
               (fun i p ->
                 match List.assoc_opt f rows.(i) with
                 | None -> ()
                 | Some e -> terms := (p, Rat.neg e) :: !terms)
               pcols;
             List.sort (fun (a, _) (b, _) -> Int.compare a b) !terms)
           free)
    end
  in
  (rank, basis)

(* {2 Farkas' algorithm}

   Minimal non-negative integer solutions of [rows . x = 0], column by
   column: at each step every row with a zero in the chosen column
   survives, and every (positive, negative) row pair contributes their
   cancelling positive combination. The [y] part starts as the
   identity, so at the end it holds the semiflows. Row growth is
   capped; exceeding the cap aborts the enumeration (reported, never
   silent). *)

type frow = { c : int array; y : (int * int) list }

let normalize_frow r =
  let g = Array.fold_left (fun g v -> igcd g (abs v)) 0 r.c in
  let g = List.fold_left (fun g (_, v) -> igcd g (abs v)) g r.y in
  if g <= 1 then r
  else
    {
      c = Array.map (fun v -> v / g) r.c;
      y = List.map (fun (i, v) -> (i, v / g)) r.y;
    }

let merge_y ~la a ~lb b =
  let rec go a b =
    match (a, b) with
    | [], [] -> []
    | (i, v) :: a', [] -> (i, la * v) :: go a' []
    | [], (j, w) :: b' -> (j, lb * w) :: go [] b'
    | (i, v) :: a', (j, w) :: b' ->
        if i < j then (i, la * v) :: go a' b
        else if j < i then (j, lb * w) :: go a b'
        else (i, (la * v) + (lb * w)) :: go a' b'
  in
  go a b

let farkas ~n_cols ~max_rows rows =
  let remaining = ref (List.init n_cols Fun.id) in
  let rows = ref rows in
  let aborted = ref None in
  while !remaining <> [] && !aborted = None do
    let score j =
      List.fold_left
        (fun (p, n) r ->
          if r.c.(j) > 0 then (p + 1, n)
          else if r.c.(j) < 0 then (p, n + 1)
          else (p, n))
        (0, 0) !rows
    in
    let best, _ =
      List.fold_left
        (fun (bj, bs) j ->
          let p, n = score j in
          let s = p * n in
          if s < bs then (j, s) else (bj, bs))
        (List.hd !remaining, max_int)
        !remaining
    in
    remaining := List.filter (fun j -> j <> best) !remaining;
    let zeros, pos, neg =
      List.fold_left
        (fun (z, p, n) r ->
          if r.c.(best) = 0 then (r :: z, p, n)
          else if r.c.(best) > 0 then (z, r :: p, n)
          else (z, p, r :: n))
        ([], [], []) !rows
    in
    let combos = ref [] in
    let count = ref (List.length zeros) in
    (try
       List.iter
         (fun rp ->
           List.iter
             (fun rn ->
               incr count;
               if !count > max_rows then raise Exit;
               let a = rp.c.(best) and b = rn.c.(best) in
               let g = igcd a (-b) in
               let la = -b / g and lb = a / g in
               let c =
                 Array.init n_cols (fun j ->
                     (la * rp.c.(j)) + (lb * rn.c.(j)))
               in
               combos :=
                 normalize_frow { c; y = merge_y ~la rp.y ~lb rn.y }
                 :: !combos)
             neg)
         pos;
       rows :=
         List.sort_uniq Stdlib.compare (List.rev_append !combos zeros)
     with Exit ->
       aborted :=
         Some
           (Printf.sprintf "Farkas row count exceeded the %d cap" max_rows))
  done;
  match !aborted with
  | Some why -> Error why
  | None ->
      (* Keep minimal-support solutions only. *)
      let support y = List.map fst y in
      let rec subset a b =
        match (a, b) with
        | [], _ -> true
        | _, [] -> false
        | x :: a', y :: b' ->
            if x = y then subset a' b'
            else if y < x then subset a b'
            else false
      in
      let ys = List.sort_uniq Stdlib.compare (List.map (fun r -> r.y) !rows) in
      Ok
        (List.filter
           (fun y ->
             let s = support y in
             not
               (List.exists
                  (fun y' -> y' <> y && subset (support y') s && support y' <> s)
                  ys))
           ys)

(* {2 The analysis} *)

let analyse ?(laws = []) ?(max_flow_modes = 512) ?(max_flow_rows = 4096)
    ?(max_basis_places = 64) (space : Space.t) =
  let model = space.Space.model in
  let modes, fired, extra = read_modes space in
  let initial =
    San.Marking.int_snapshot (San.Model.initial_marking model)
  in
  let n_int = Array.length initial in
  let place_names = Array.make n_int "" in
  Array.iter
    (fun p -> place_names.(San.Place.index p) <- San.Place.name p)
    (San.Model.places model);
  let touched = Array.make n_int false in
  Array.iter
    (fun md -> List.iter (fun (i, _) -> touched.(i) <- true) md.delta)
    modes;
  (* A statically unresolved write touches its place even though it
     contributes no delta row — it must count as active. *)
  List.iter (fun i -> touched.(i) <- true) extra.ex_unresolved;
  let active = ref [] and constant = ref [] in
  for i = n_int - 1 downto 0 do
    if touched.(i) then active := i :: !active else constant := i :: !constant
  done;
  let active = !active and constant = !constant in
  let snapshots =
    List.map San.Marking.int_snapshot space.Space.markings
  in
  let observed_max = Array.copy initial in
  List.iter
    (fun snap ->
      Array.iteri
        (fun i v -> if v > observed_max.(i) then observed_max.(i) <- v)
        snap)
    snapshots;
  (* Unresolved places get a synthetic unit row: it enters the rank and
     (as an extra incidence column) the Farkas enumeration, forcing
     every P-semiflow and basis invariant to zero coefficient there —
     the sound reading of "we cannot say how this place moves". *)
  let synthetic = List.map (fun i -> [ (i, 1) ]) extra.ex_unresolved in
  let rank, p_basis =
    rank_and_basis ~max_basis_places ~active
      (Array.to_list (Array.map (fun md -> md.delta) modes) @ synthetic)
  in
  let n_active = List.length active in
  let n_modes = Array.length modes in
  let n_unres = List.length extra.ex_unresolved in
  let flows_skipped, p_semiflows, t_semiflows =
    if n_modes > max_flow_modes then
      ( Some
          (Printf.sprintf "%d modes exceed the %d semiflow-enumeration cap"
             n_modes max_flow_modes),
        [],
        [] )
    else if n_active > max_flow_rows then
      ( Some
          (Printf.sprintf "%d active places exceed the %d row cap" n_active
             max_flow_rows),
        [],
        [] )
    else begin
      let col_of = Array.make n_int (-1) in
      List.iteri (fun j i -> col_of.(i) <- j) active;
      (* P-semiflows: one row per active place, over the mode columns
         plus one synthetic column per unresolved place. *)
      let prows =
        List.map
          (fun i ->
            let c = Array.make (n_modes + n_unres) 0 in
            Array.iteri
              (fun j md ->
                match List.assoc_opt i md.delta with
                | Some d -> c.(j) <- d
                | None -> ())
              modes;
            List.iteri
              (fun k u -> if u = i then c.(n_modes + k) <- 1)
              extra.ex_unresolved;
            { c; y = [ (i, 1) ] })
          active
      in
      (* T-semiflows: one row per marking-changing mode over the active
         place columns. Modes with an empty delta are trivially
         repetitive and excluded as noise; rows of a case with
         unresolved writes are incomplete and excluded — a firing-count
         claim over them would be unsound. *)
      let trows = ref [] in
      Array.iteri
        (fun pos md ->
          if md.delta <> [] && not extra.ex_incomplete.(pos) then begin
            let c = Array.make n_active 0 in
            List.iter (fun (i, d) -> c.(col_of.(i)) <- d) md.delta;
            trows := { c; y = [ (pos, 1) ] } :: !trows
          end)
        modes;
      let trows = List.rev !trows in
      match
        ( farkas ~n_cols:(n_modes + n_unres) ~max_rows:max_flow_rows prows,
          farkas ~n_cols:n_active ~max_rows:max_flow_rows trows )
      with
      | Ok ps, Ok ts ->
          let flows =
            List.map
              (fun y ->
                {
                  flow_terms = y;
                  flow_value =
                    List.fold_left
                      (fun s (i, k) -> s + (k * initial.(i)))
                      0 y;
                })
              ps
          in
          (None, flows, ts)
      | Error why, _ | _, Error why -> (Some why, [], [])
    end
  in
  (* {3 Declared laws}

     The symbolic drift interpreter proves every law per case; only if
     some case defeats the interpreter do we fall back to validating on
     the space's markings. *)
  let laws =
    let terms =
      Array.of_list
        (List.map
           (fun l ->
             List.map (fun (p, k) -> (San.Place.index p, k)) l.law_terms
             |> List.sort Stdlib.compare)
           laws)
    in
    (* One symbolic sweep proves every law at once. *)
    let violations = Array.make (Array.length terms) [] in
    let unproven = Array.make (Array.length terms) [] in
    if laws <> [] then
      Array.iter
        (fun (a : San.Activity.t) ->
          Array.iteri
            (fun case (c : San.Activity.case) ->
              let verdicts =
                Symbolic.case_drifts ~n_int ~guard:a.San.Activity.guard terms
                  c.San.Activity.effect
              in
              Array.iteri
                (fun li v ->
                  match v with
                  | Symbolic.Proven -> ()
                  | Symbolic.Drift d ->
                      violations.(li) <-
                        (a.San.Activity.name, case, d) :: violations.(li)
                  | Symbolic.Unproven why ->
                      unproven.(li) <-
                        (a.San.Activity.name, case, why) :: unproven.(li))
                verdicts)
            a.San.Activity.cases)
        (San.Model.activities model);
    List.mapi
      (fun li l ->
        let terms = terms.(li) in
        let value =
          List.fold_left (fun s (i, k) -> s + (k * initial.(i))) 0 terms
        in
        let vs = List.rev violations.(li) in
        let unp = List.rev unproven.(li) in
        let vs, how =
          if unp = [] then (vs, "proven symbolically over the effect IR")
          else begin
            (* Backstop: the symbolic engine gave up on some case —
               validate the law on every collected marking so a plainly
               broken law is still reported. *)
            let marking_bad =
              List.exists
                (fun snap ->
                  List.fold_left (fun s (i, k) -> s + (k * snap.(i))) 0 terms
                  <> value)
                snapshots
            in
            ( (if marking_bad then vs @ [ ("(marking)", 0, 0) ] else vs),
              Printf.sprintf
                "symbolic proof incomplete; validated on %d markings"
                (List.length snapshots) )
          end
        in
        {
          lr_name = l.law_name;
          lr_terms = terms;
          lr_value = value;
          lr_violations = vs;
          lr_how = how;
          lr_unproven = unp;
        })
      laws
  in
  let structural_bound = Array.make n_int None in
  let apply_flow terms value =
    List.iter
      (fun (i, k) ->
        if k > 0 then begin
          let b = value / k in
          structural_bound.(i) <-
            Some
              (match structural_bound.(i) with
              | None -> b
              | Some x -> min x b)
        end)
      terms
  in
  List.iter (fun f -> apply_flow f.flow_terms f.flow_value) p_semiflows;
  List.iter
    (fun lr ->
      if
        lr.lr_violations = [] && lr.lr_unproven = []
        && List.for_all (fun (_, k) -> k >= 0) lr.lr_terms
      then apply_flow lr.lr_terms lr.lr_value)
    laws;
  Array.iteri
    (fun i b ->
      match b with
      | None -> ()
      | Some b ->
          structural_bound.(i) <-
            Some
              (match structural_bound.(i) with None -> b | Some x -> min x b))
    (Symbolic.set_only_bounds model);
  (* A015: a resolved decrement that provably under-runs its place —
     the guard-pinned prior already goes negative, or the delta exceeds
     what the structural bound allows the place to hold. *)
  let a015 =
    List.filter_map
      (fun (act, case, i, d, prior) ->
        let fire, why =
          match prior with
          | Some pv ->
              ( pv + d < 0,
                Printf.sprintf "guard pins it at %d and the delta is %d" pv d )
          | None -> (
              match structural_bound.(i) with
              | Some b ->
                  ( b < -d,
                    Printf.sprintf
                      "the delta is %d but its structural bound is %d" d b )
              | None -> (false, ""))
        in
        if fire then
          Some
            (Diagnostic.v ~code:Diagnostic.negative_capable
               ~severity:Diagnostic.Warning
               ~source:(Diagnostic.Place place_names.(i))
               (Printf.sprintf "%s case %d can drive it negative: %s" act case
                  why))
        else None)
      extra.ex_decs
  in
  {
    incidence = Exact;
    space_mode = space.Space.mode;
    n_markings = Space.n_markings space;
    n_int;
    place_names;
    initial;
    modes;
    fired;
    active;
    constant;
    rank;
    invariant_dim = n_active - rank;
    p_basis;
    p_semiflows;
    t_semiflows;
    flows_skipped;
    laws;
    observed_max;
    structural_bound;
    unresolved = extra.ex_unresolved;
    ir_diags = extra.ex_dead @ a015;
  }

let verified_nonneg lr =
  lr.lr_violations = [] && lr.lr_unproven = []
  && List.for_all (fun (_, k) -> k >= 0) lr.lr_terms

let covered t i =
  (not (List.mem i t.active))
  || t.structural_bound.(i) <> None
  || List.exists (fun f -> List.mem_assoc i f.flow_terms) t.p_semiflows
  || List.exists
       (fun lr ->
         verified_nonneg lr
         && match List.assoc_opt i lr.lr_terms with
            | Some k -> k > 0
            | None -> false)
       t.laws

let sampled_fallbacks t =
  List.filter_map
    (fun lr ->
      if lr.lr_unproven = [] then None
      else
        Some
          (Printf.sprintf
             "law %S: symbolic proof incomplete, validated on markings only"
             lr.lr_name))
    t.laws

(* {2 Diagnostics} *)

let diagnostics t =
  let out = ref [] in
  let n_acts = Array.length t.fired in
  let has_mode = Array.make n_acts false in
  let all_noop = Array.make n_acts true in
  let name = Array.make n_acts "" in
  Array.iter
    (fun md ->
      has_mode.(md.act_id) <- true;
      name.(md.act_id) <- md.activity;
      if md.delta <> [] || md.float_delta then all_noop.(md.act_id) <- false)
    t.modes;
  for id = 0 to n_acts - 1 do
    if has_mode.(id) && all_noop.(id) then
      out :=
        Diagnostic.v ~code:Diagnostic.dead_effect
          ~severity:Diagnostic.Warning
          ~source:(Diagnostic.Activity name.(id))
          "every observed firing leaves the marking unchanged (dead effect)"
        :: !out
  done;
  List.iter
    (fun lr ->
      List.iter
        (fun (act, case, drift) ->
          out :=
            Diagnostic.v ~code:Diagnostic.invariant_violated
              ~severity:Diagnostic.Error
              ~source:(Diagnostic.Activity act)
              (Printf.sprintf
                 "case %d effect changes declared invariant %S by %+d" case
                 lr.lr_name drift)
            :: !out)
        lr.lr_violations)
    t.laws;
  (* A010: never in exhaustive space mode — the walk itself bounds
     every place. An uncovered place warns only when the IR proves an
     increasing delta; a place that is merely written with an
     unresolved delta gets an informational note. *)
  if t.space_mode = Space.Sampled && t.flows_skipped = None then
    List.iter
      (fun i ->
        if not (covered t i) then begin
          let increasing =
            Array.exists
              (fun md -> List.exists (fun (j, d) -> j = i && d > 0) md.delta)
              t.modes
          in
          if increasing then
            out :=
              Diagnostic.v ~code:Diagnostic.unbounded_place
                ~severity:Diagnostic.Warning
                ~source:(Diagnostic.Place t.place_names.(i))
                "no covering P-semiflow or structural bound and the effect \
                 IR shows an increasing delta (potentially unbounded)"
              :: !out
          else if List.mem i t.unresolved then
            out :=
              Diagnostic.v ~code:Diagnostic.unbounded_place
                ~severity:Diagnostic.Info
                ~source:(Diagnostic.Place t.place_names.(i))
                "written with a statically unresolved delta and not covered \
                 by any semiflow or bound; boundedness unknown"
              :: !out
        end)
      t.active;
  t.ir_diags @ !out

(* {2 Rendering} *)

let pp_terms ppf (names, terms) =
  List.iteri
    (fun k (i, coeff) ->
      if k > 0 then Format.fprintf ppf " + ";
      if coeff <> 1 then Format.fprintf ppf "%d*" coeff;
      Format.fprintf ppf "%s" names.(i))
    terms

let pp ppf t =
  Format.fprintf ppf
    "structural certificate (exact: incidence derived symbolically from \
     the effect IR; %d markings sampled for validation)@."
    t.n_markings;
  (match t.unresolved with
  | [] -> ()
  | us ->
      Format.fprintf ppf
        "  statically unresolved places (excluded from semiflows):";
      List.iter (fun i -> Format.fprintf ppf " %s" t.place_names.(i)) us;
      Format.fprintf ppf "@.");
  Format.fprintf ppf
    "  int places: %d (%d active, %d constant); modes: %d; rank %d; \
     independent P-invariants: %d@."
    t.n_int (List.length t.active)
    (List.length t.constant)
    (Array.length t.modes) t.rank t.invariant_dim;
  (match t.flows_skipped with
  | Some why -> Format.fprintf ppf "  semiflow enumeration skipped: %s@." why
  | None ->
      (match t.p_semiflows with
      | [] -> Format.fprintf ppf "  P-semiflows: none@."
      | fs ->
          let n = List.length fs in
          let shown = List.filteri (fun k _ -> k < 16) fs in
          Format.fprintf ppf "  P-semiflows (conserved weighted sums, %d):@."
            n;
          List.iter
            (fun f ->
              Format.fprintf ppf "    %a = %d@." pp_terms
                (t.place_names, f.flow_terms)
                f.flow_value)
            shown;
          if n > List.length shown then
            Format.fprintf ppf "    ... and %d more (see the JSON report)@."
              (n - List.length shown));
      match t.t_semiflows with
      | [] -> Format.fprintf ppf "  T-semiflows: none@."
      | ts ->
          let labels = Array.map (fun md -> md.label) t.modes in
          let n = List.length ts in
          let shown = List.filteri (fun k _ -> k < 16) ts in
          Format.fprintf ppf
            "  T-semiflows (firing counts with zero net effect, %d):@." n;
          List.iter
            (fun tf ->
              Format.fprintf ppf "    %a@." pp_terms (labels, tf))
            shown;
          if n > List.length shown then
            Format.fprintf ppf "    ... and %d more (see the JSON report)@."
              (n - List.length shown));
  (match t.laws with
  | [] -> ()
  | laws ->
      Format.fprintf ppf "  declared invariants:@.";
      List.iter
        (fun lr ->
          if lr.lr_violations = [] then
            Format.fprintf ppf "    %s: %a = %d — holds (%s)@." lr.lr_name
              pp_terms
              (t.place_names, lr.lr_terms)
              lr.lr_value lr.lr_how
          else begin
            Format.fprintf ppf "    %s: VIOLATED@." lr.lr_name;
            List.iter
              (fun (act, case, drift) ->
                Format.fprintf ppf "      %s (case %d) drifts it by %+d@." act
                  case drift)
              lr.lr_violations
          end;
          List.iter
            (fun (act, case, why) ->
              Format.fprintf ppf "      unproven for %s (case %d): %s@." act
                case why)
            lr.lr_unproven)
        laws);
  let bounded =
    List.filter (fun i -> t.structural_bound.(i) <> None) t.active
  in
  match (t.space_mode, bounded) with
  | Space.Exhaustive, _ ->
      Format.fprintf ppf
        "  boundedness: every place is bounded by exhaustion of the \
         reachable space@."
  | Space.Sampled, [] -> ()
  | Space.Sampled, bounded ->
      let n = List.length bounded in
      let shown = List.filteri (fun k _ -> k < 12) bounded in
      Format.fprintf ppf "  structural place bounds (%d):@." n;
      List.iter
        (fun i ->
          match t.structural_bound.(i) with
          | Some b ->
              Format.fprintf ppf "    %s <= %d (observed max %d)@."
                t.place_names.(i) b t.observed_max.(i)
          | None -> ())
        shown;
      if n > List.length shown then
        Format.fprintf ppf "    ... and %d more (see the JSON report)@."
          (n - List.length shown)

let to_json t =
  let open Report.Json in
  let terms_json names terms =
    Arr
      (List.map
         (fun (i, k) ->
           Obj [ ("name", Str names.(i)); ("coeff", int k) ])
         terms)
  in
  let labels = Array.map (fun md -> md.label) t.modes in
  Obj
    [
      ("incidence", Str (incidence_name t.incidence));
      ( "mode",
        Str
          (match t.space_mode with
          | Space.Exhaustive -> "exhaustive"
          | Space.Sampled -> "sampled") );
      ("markings", int t.n_markings);
      ( "unresolved_places",
        Arr (List.map (fun i -> Str t.place_names.(i)) t.unresolved) );
      ("int_places", int t.n_int);
      ("active_places", int (List.length t.active));
      ("constant_places", int (List.length t.constant));
      ("modes", int (Array.length t.modes));
      ("rank", int t.rank);
      ("invariant_dimension", int t.invariant_dim);
      ( "p_semiflows",
        Arr
          (List.map
             (fun f ->
               Obj
                 [
                   ("terms", terms_json t.place_names f.flow_terms);
                   ("value", int f.flow_value);
                 ])
             t.p_semiflows) );
      ( "t_semiflows",
        Arr
          (List.map (fun tf -> terms_json labels tf) t.t_semiflows) );
      ( "flows_skipped",
        match t.flows_skipped with None -> Null | Some why -> Str why );
      ( "invariant_basis",
        match t.p_basis with
        | None -> Null
        | Some basis ->
            Arr
              (List.map
                 (fun terms ->
                   Arr
                     (List.map
                        (fun (i, r) ->
                          Obj
                            [
                              ("name", Str t.place_names.(i));
                              ("num", int r.Rat.num);
                              ("den", int r.Rat.den);
                            ])
                        terms))
                 basis) );
      ( "declared",
        Arr
          (List.map
             (fun lr ->
               Obj
                 [
                   ("name", Str lr.lr_name);
                   ("terms", terms_json t.place_names lr.lr_terms);
                   ("value", int lr.lr_value);
                   ("holds", Bool (lr.lr_violations = []));
                   ("how", Str lr.lr_how);
                   ( "unproven",
                     Arr
                       (List.map
                          (fun (act, case, why) ->
                            Obj
                              [
                                ("activity", Str act);
                                ("case", int case);
                                ("reason", Str why);
                              ])
                          lr.lr_unproven) );
                   ( "violations",
                     Arr
                       (List.map
                          (fun (act, case, drift) ->
                            Obj
                              [
                                ("activity", Str act);
                                ("case", int case);
                                ("drift", int drift);
                              ])
                          lr.lr_violations) );
                 ])
             t.laws) );
      ( "bounds",
        Arr
          (List.filter_map
             (fun i ->
               match (t.space_mode, t.structural_bound.(i)) with
               | Space.Sampled, None -> None
               | _, sb ->
                   Some
                     (Obj
                        [
                          ("name", Str t.place_names.(i));
                          ( "structural",
                            match sb with None -> Null | Some b -> int b );
                          ("observed", int t.observed_max.(i));
                        ]))
             t.active) );
    ]

(* {2 Runtime guard} *)

let guard ~laws model =
  let m0 = San.Model.initial_marking model in
  let compiled =
    List.map
      (fun l ->
        let expect =
          List.fold_left
            (fun s (p, k) -> s + (k * San.Marking.get m0 p))
            0 l.law_terms
        in
        (l.law_name, l.law_terms, expect))
      laws
  in
  fun m ->
    List.iter
      (fun (name, terms, expect) ->
        let got =
          List.fold_left
            (fun s (p, k) -> s + (k * San.Marking.get m p))
            0 terms
        in
        if got <> expect then
          raise
            (Invariant_violation
               (Printf.sprintf "invariant %S violated: expected %d, got %d"
                  name expect got)))
      compiled
