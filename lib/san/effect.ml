type ctx = { time : float; stream : Prng.Stream.t option }

let stream_exn ctx =
  match ctx.stream with
  | Some s -> s
  | None ->
      failwith
        "Effect.stream_exn: effect requires randomness; this model cannot \
         be explored analytically"

type rel = Eq | Ne | Lt | Le | Gt | Ge

type iexpr =
  | Int of int
  | Mark of Place.t
  | Add of iexpr * iexpr
  | Sub of iexpr * iexpr
  | Mul of iexpr * iexpr
  | Ind of cond

and cond =
  | Const of bool
  | Cmp of iexpr * rel * iexpr
  | All of cond list
  | Any of cond list
  | Not of cond

type fexpr =
  | Flt of float
  | FMark of Place.fl
  | OfInt of iexpr
  | FAdd of fexpr * fexpr
  | FSub of fexpr * fexpr
  | FMul of fexpr * fexpr
  | FDiv of fexpr * fexpr

type rexpr =
  | RConst of float
  | RExpr of fexpr
  | RIf of cond * rexpr * rexpr

type op =
  | Set of Place.t * iexpr
  | Inc of Place.t * iexpr
  | FSet of Place.fl * fexpr
  | FInc of Place.fl * fexpr

type t =
  | Skip
  | Ops of op list
  | Seq of t list
  | If of cond * t * t
  | Pick of (cond * t) list

(* Evaluation *)

let rel_holds rel a b =
  match rel with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let rec eval m = function
  | Int k -> k
  | Mark p -> Marking.get m p
  | Add (a, b) -> eval m a + eval m b
  | Sub (a, b) -> eval m a - eval m b
  | Mul (a, b) -> eval m a * eval m b
  | Ind c -> if holds m c then 1 else 0

and holds m = function
  | Const b -> b
  | Cmp (a, rel, b) -> rel_holds rel (eval m a) (eval m b)
  | All cs -> List.for_all (holds m) cs
  | Any cs -> List.exists (holds m) cs
  | Not c -> not (holds m c)

let rec feval m = function
  | Flt x -> x
  | FMark p -> Marking.fget m p
  | OfInt e -> float_of_int (eval m e)
  | FAdd (a, b) -> feval m a +. feval m b
  | FSub (a, b) -> feval m a -. feval m b
  | FMul (a, b) -> feval m a *. feval m b
  | FDiv (a, b) -> feval m a /. feval m b

let rec reval m = function
  | RConst x -> x
  | RExpr e -> feval m e
  | RIf (c, a, b) -> if holds m c then reval m a else reval m b

let apply_op m = function
  | Set (p, e) -> Marking.set m p (eval m e)
  | Inc (p, e) -> Marking.add m p (eval m e)
  | FSet (p, e) -> Marking.fset m p (feval m e)
  | FInc (p, e) -> Marking.fadd m p (feval m e)

let rec apply ctx eff m =
  match eff with
  | Skip -> ()
  | Ops ops -> List.iter (apply_op m) ops
  | Seq es -> List.iter (fun e -> apply ctx e m) es
  | If (c, a, b) -> if holds m c then apply ctx a m else apply ctx b m
  | Pick branches -> (
      let feasible =
        List.filter_map
          (fun (c, e) -> if holds m c then Some e else None)
          branches
      in
      match feasible with
      | [] -> failwith "Effect.apply: Pick with no feasible branch"
      | [ only ] -> apply ctx only m
      | choices ->
          apply ctx (Prng.Stream.choose_list (stream_exn ctx) choices) m)

exception Too_many_outcomes of int

let max_outcomes = 4096

let outcomes eff m =
  let count = ref 1 in
  let rec go eff (w, m) =
    match eff with
    | Skip -> [ (w, m) ]
    | Ops ops ->
        List.iter (apply_op m) ops;
        [ (w, m) ]
    | Seq es ->
        List.fold_left
          (fun acc e -> List.concat_map (fun wm -> go e wm) acc)
          [ (w, m) ] es
    | If (c, a, b) -> if holds m c then go a (w, m) else go b (w, m)
    | Pick branches -> (
        let feasible =
          List.filter_map
            (fun (c, e) -> if holds m c then Some e else None)
            branches
        in
        match feasible with
        | [] -> failwith "Effect.outcomes: Pick with no feasible branch"
        | [ only ] -> go only (w, m)
        | choices ->
            let k = List.length choices in
            count := !count + k - 1;
            if !count > max_outcomes then
              raise (Too_many_outcomes max_outcomes);
            let wk = w /. float_of_int k in
            (* Copy [m] for the other branches before the first one
               writes to it in place. *)
            let others =
              List.concat_map
                (fun e -> go e (wk, Marking.copy m))
                (List.tl choices)
            in
            others @ go (List.hd choices) (wk, m))
  in
  go eff (1.0, m)

(* Static structure *)

module Uids = Set.Make (Int)

let rec iexpr_reads acc = function
  | Int _ -> acc
  | Mark p -> Uids.add (Place.uid p) acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> iexpr_reads (iexpr_reads acc a) b
  | Ind c -> cond_reads_acc acc c

and cond_reads_acc acc = function
  | Const _ -> acc
  | Cmp (a, _, b) -> iexpr_reads (iexpr_reads acc a) b
  | All cs | Any cs -> List.fold_left cond_reads_acc acc cs
  | Not c -> cond_reads_acc acc c

let rec fexpr_reads acc = function
  | Flt _ -> acc
  | FMark p -> Uids.add (Place.fuid p) acc
  | OfInt e -> iexpr_reads acc e
  | FAdd (a, b) | FSub (a, b) | FMul (a, b) | FDiv (a, b) ->
      fexpr_reads (fexpr_reads acc a) b

let cond_reads c = Uids.elements (cond_reads_acc Uids.empty c)

let rec rexpr_reads_acc acc = function
  | RConst _ -> acc
  | RExpr e -> fexpr_reads acc e
  | RIf (c, a, b) ->
      rexpr_reads_acc (rexpr_reads_acc (cond_reads_acc acc c) a) b

let rexpr_reads r = Uids.elements (rexpr_reads_acc Uids.empty r)

(* An increment reads its target (Marking.add = get + set), a set does
   not — matching what [Marking.trace_reads] observes. *)
let op_reads acc = function
  | Set (_, e) -> iexpr_reads acc e
  | Inc (p, e) -> iexpr_reads (Uids.add (Place.uid p) acc) e
  | FSet (_, e) -> fexpr_reads acc e
  | FInc (p, e) -> fexpr_reads (Uids.add (Place.fuid p) acc) e

let op_writes acc = function
  | Set (p, _) | Inc (p, _) -> Uids.add (Place.uid p) acc
  | FSet (p, _) | FInc (p, _) -> Uids.add (Place.fuid p) acc

let static_reads eff =
  let rec go acc = function
    | Skip -> acc
    | Ops ops -> List.fold_left op_reads acc ops
    | Seq es -> List.fold_left go acc es
    | If (c, a, b) -> go (go (cond_reads_acc acc c) a) b
    | Pick bs ->
        List.fold_left (fun acc (c, e) -> go (cond_reads_acc acc c) e) acc bs
  in
  Uids.elements (go Uids.empty eff)

(* Write sets must not pick up guard reads. *)
let static_writes eff =
  let rec go acc = function
    | Skip -> acc
    | Ops ops -> List.fold_left op_writes acc ops
    | Seq es -> List.fold_left go acc es
    | If (_, a, b) -> go (go acc a) b
    | Pick bs -> List.fold_left (fun acc (_, e) -> go acc e) acc bs
  in
  Uids.elements (go Uids.empty eff)

(* Compilation *)

type cop =
  | CAdd of Place.t * int
  | CSet of Place.t * int
  | CAddE of Place.t * iexpr
  | CSetE of Place.t * iexpr
  | CFSet of Place.fl * fexpr
  | CFAdd of Place.fl * fexpr

type pcond =
  | KConst of bool
  | KCmpc of Place.t * rel * int
  | KGen of cond

type prog =
  | PSkip
  | PAddc of (Place.t * int) array
  | POps of cop array
  | PSeq of prog array
  | PIf of pcond * prog * prog
  | PPick of (pcond * prog) array

let rec const_iexpr = function
  | Int k -> Some k
  | Mark _ -> None
  | Add (a, b) -> (
      match (const_iexpr a, const_iexpr b) with
      | Some x, Some y -> Some (x + y)
      | _ -> None)
  | Sub (a, b) -> (
      match (const_iexpr a, const_iexpr b) with
      | Some x, Some y -> Some (x - y)
      | _ -> None)
  | Mul (a, b) -> (
      match (const_iexpr a, const_iexpr b) with
      | Some x, Some y -> Some (x * y)
      | _ -> None)
  | Ind _ -> None

let compile_op op =
  match op with
  | Set (p, e) -> (
      match const_iexpr e with
      | Some k -> CSet (p, k)
      | None -> CSetE (p, e))
  | Inc (p, e) -> (
      match const_iexpr e with
      | Some k -> CAdd (p, k)
      | None -> CAddE (p, e))
  | FSet (p, e) -> CFSet (p, e)
  | FInc (p, e) -> CFAdd (p, e)

let compile_cond c =
  match c with
  | Const b -> KConst b
  | Cmp (Mark p, rel, e) -> (
      match const_iexpr e with Some k -> KCmpc (p, rel, k) | None -> KGen c)
  | _ -> KGen c

(* Compilation memo, scoped to one model build, so a sub-term shared by
   many activities (the ITUA exclusion cascade) compiles once and every
   case that contains it holds the same program. The bucket hash is the
   bounded structural hash, which is stable under GC moves. Equality is
   [compare = 0], which returns at once on physically equal terms (the
   shared case). It is structural rather than [==] because a
   tree-shaped model (one reloaded from disk) repeats the same sub-term
   thousands of times: all copies hash alike, and under [==] each one
   would scan a bucket of all the others. Structurally equal terms
   compile to equal programs, so they may share one. Leaf op lists are
   compiled directly: that costs about as much as a lookup. *)
module Memo = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b = compare a b = 0
  let hash = Hashtbl.hash
end)

type memo = prog Memo.t

let memo () = Memo.create 64

let rec compile_in memo eff =
  match eff with
  | Skip | Ops _ -> compile_node memo eff
  | Seq _ | If _ | Pick _ -> (
      match Memo.find_opt memo eff with
      | Some prog -> prog
      | None ->
          let prog = compile_node memo eff in
          Memo.add memo eff prog;
          prog)

and compile_node memo eff =
  match eff with
  | Skip -> PSkip
  | Ops ops -> (
      let cops = List.map compile_op ops in
      let all_addc =
        List.for_all (function CAdd _ -> true | _ -> false) cops
      in
      if all_addc && cops <> [] then
        PAddc
          (Array.of_list
             (List.map (function CAdd (p, k) -> (p, k) | _ -> assert false)
                cops))
      else
        match cops with [] -> PSkip | _ -> POps (Array.of_list cops))
  | Seq es -> (
      let progs =
        List.concat_map
          (fun e ->
            match compile_in memo e with
            | PSkip -> []
            | PSeq ps -> Array.to_list ps
            | p -> [ p ])
          es
      in
      match progs with
      | [] -> PSkip
      | [ p ] -> p
      | ps -> PSeq (Array.of_list ps))
  | If (c, a, b) -> (
      match compile_cond c with
      | KConst true -> compile_in memo a
      | KConst false -> compile_in memo b
      | k -> PIf (k, compile_in memo a, compile_in memo b))
  | Pick bs ->
      PPick
        (Array.of_list
           (List.map (fun (c, e) -> (compile_cond c, compile_in memo e)) bs))

let compile eff = compile_in (memo ()) eff

let pcond_holds m = function
  | KConst b -> b
  | KCmpc (p, rel, k) -> rel_holds rel (Marking.get m p) k
  | KGen c -> holds m c

let run_cop m = function
  | CAdd (p, k) -> Marking.add m p k
  | CSet (p, k) -> Marking.set m p k
  | CAddE (p, e) -> Marking.add m p (eval m e)
  | CSetE (p, e) -> Marking.set m p (eval m e)
  | CFSet (p, e) -> Marking.fset m p (feval m e)
  | CFAdd (p, e) -> Marking.fadd m p (feval m e)

let rec run_prog ctx prog m =
  match prog with
  | PSkip -> ()
  | PAddc arcs ->
      for i = 0 to Array.length arcs - 1 do
        let p, k = Array.unsafe_get arcs i in
        Marking.add m p k
      done
  | POps cops ->
      for i = 0 to Array.length cops - 1 do
        run_cop m (Array.unsafe_get cops i)
      done
  | PSeq ps ->
      for i = 0 to Array.length ps - 1 do
        run_prog ctx (Array.unsafe_get ps i) m
      done
  | PIf (c, a, b) ->
      if pcond_holds m c then run_prog ctx a m else run_prog ctx b m
  | PPick branches -> (
      let feasible = ref [] in
      for i = Array.length branches - 1 downto 0 do
        let c, p = Array.unsafe_get branches i in
        if pcond_holds m c then feasible := p :: !feasible
      done;
      match !feasible with
      | [] -> failwith "Effect.run_prog: Pick with no feasible branch"
      | [ only ] -> run_prog ctx only m
      | choices ->
          run_prog ctx (Prng.Stream.choose_list (stream_exn ctx) choices) m)

(* Guards sit on the executor's re-evaluation hot path, so compile the
   condition tree to nested closures instead of interpreting it: small
   conjunctions/disjunctions become direct [&&]/[||] chains, leaf
   comparisons specialize per relation. *)
let rec cond_fn c =
  match c with
  | Const b -> fun _ -> b
  | Cmp (Mark p, rel, Int k) -> (
      match rel with
      | Eq -> fun m -> Marking.get m p = k
      | Ne -> fun m -> Marking.get m p <> k
      | Lt -> fun m -> Marking.get m p < k
      | Le -> fun m -> Marking.get m p <= k
      | Gt -> fun m -> Marking.get m p > k
      | Ge -> fun m -> Marking.get m p >= k)
  | Cmp (a, rel, b) -> fun m -> rel_holds rel (eval m a) (eval m b)
  | All cs -> (
      match List.map cond_fn cs with
      | [] -> fun _ -> true
      | [ f ] -> f
      | [ f; g ] -> fun m -> f m && g m
      | [ f; g; h ] -> fun m -> f m && g m && h m
      | [ f; g; h; i ] -> fun m -> f m && g m && h m && i m
      | fs -> fun m -> List.for_all (fun f -> f m) fs)
  | Any cs -> (
      match List.map cond_fn cs with
      | [] -> fun _ -> false
      | [ f ] -> f
      | [ f; g ] -> fun m -> f m || g m
      | [ f; g; h ] -> fun m -> f m || g m || h m
      | fs -> fun m -> List.exists (fun f -> f m) fs)
  | Not c ->
      let f = cond_fn c in
      fun m -> not (f m)

(* Rate expressions compile the same way: constants become constant
   closures (the builder then folds them into preallocated [Dist.t]
   records), branches reuse [cond_fn]. [rexpr_fn r m = reval m r]
   bit-for-bit: both arms perform the identical float operations in the
   identical order. *)
let rec rexpr_fn = function
  | RConst x -> fun _ -> x
  | RExpr e -> fun m -> feval m e
  | RIf (c, a, b) ->
      let c = cond_fn c and a = rexpr_fn a and b = rexpr_fn b in
      fun m -> if c m then a m else b m

(* Pretty-printing *)

let pp_rel ppf rel =
  Format.pp_print_string ppf
    (match rel with
    | Eq -> "="
    | Ne -> "!="
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">=")

let rec pp_iexpr ppf = function
  | Int k -> Format.pp_print_int ppf k
  | Mark p -> Format.pp_print_string ppf (Place.name p)
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_iexpr a pp_iexpr b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_iexpr a pp_iexpr b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_iexpr a pp_iexpr b
  | Ind c -> Format.fprintf ppf "[%a]" pp_cond c

and pp_cond ppf = function
  | Const b -> Format.pp_print_bool ppf b
  | Cmp (a, rel, b) ->
      Format.fprintf ppf "%a %a %a" pp_iexpr a pp_rel rel pp_iexpr b
  | All cs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " && ")
           pp_cond)
        cs
  | Any cs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " || ")
           pp_cond)
        cs
  | Not c -> Format.fprintf ppf "!%a" pp_cond c

(* [%g] when it reads back as the same float, all 17 digits otherwise,
   so two different constants never print alike. *)
let pp_float ppf x =
  let s = Printf.sprintf "%g" x in
  Format.pp_print_string ppf
    (if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x)

let rec pp_fexpr ppf = function
  | Flt x -> pp_float ppf x
  | FMark p -> Format.pp_print_string ppf (Place.fname p)
  | OfInt e -> Format.fprintf ppf "float(%a)" pp_iexpr e
  | FAdd (a, b) -> Format.fprintf ppf "(%a +. %a)" pp_fexpr a pp_fexpr b
  | FSub (a, b) -> Format.fprintf ppf "(%a -. %a)" pp_fexpr a pp_fexpr b
  | FMul (a, b) -> Format.fprintf ppf "(%a *. %a)" pp_fexpr a pp_fexpr b
  | FDiv (a, b) -> Format.fprintf ppf "(%a /. %a)" pp_fexpr a pp_fexpr b

let rec pp_rexpr ppf = function
  | RConst x -> pp_float ppf x
  | RExpr e -> pp_fexpr ppf e
  | RIf (c, a, b) ->
      Format.fprintf ppf "(if %a then %a else %a)" pp_cond c pp_rexpr a
        pp_rexpr b

let pp_op ppf = function
  | Set (p, e) -> Format.fprintf ppf "%s := %a" (Place.name p) pp_iexpr e
  | Inc (p, Int k) when k < 0 ->
      Format.fprintf ppf "%s -= %d" (Place.name p) (-k)
  | Inc (p, e) -> Format.fprintf ppf "%s += %a" (Place.name p) pp_iexpr e
  | FSet (p, e) -> Format.fprintf ppf "%s := %a" (Place.fname p) pp_fexpr e
  | FInc (p, e) -> Format.fprintf ppf "%s += %a" (Place.fname p) pp_fexpr e

let rec pp ppf = function
  | Skip -> Format.pp_print_string ppf "skip"
  | Ops ops ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
        pp_op ppf ops
  | Seq es ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
        pp ppf es
  | If (c, a, Skip) ->
      Format.fprintf ppf "@[<v 2>if %a {@ %a@]@ }" pp_cond c pp a
  | If (c, a, b) ->
      Format.fprintf ppf "@[<v 2>if %a {@ %a@]@ @[<v 2>} else {@ %a@]@ }"
        pp_cond c pp a pp b
  | Pick bs ->
      Format.fprintf ppf "@[<v 2>pick {@ %a@]@ }"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ | ")
           (fun ppf (c, e) ->
             Format.fprintf ppf "@[<hv 2>%a ->@ %a@]" pp_cond c pp e))
        bs
