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

type rexpr =
  | RConst of float
  | FMark of Place.fl
  | OfInt of iexpr
  | FAdd of rexpr * rexpr
  | FSub of rexpr * rexpr
  | FMul of rexpr * rexpr
  | FDiv of rexpr * rexpr
  | RIf of cond * rexpr * rexpr

type op =
  | Set of Place.t * iexpr
  | Inc of Place.t * iexpr
  | FSet of Place.fl * rexpr
  | FInc of Place.fl * rexpr

type t =
  | Skip
  | Ops of op list
  | Seq of t list
  | If of cond * t * t
  | Pick of (cond * t) list

(* Evaluation *)

let rel_holds rel (a : int) b =
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
  | All cs -> all_hold m cs
  | Any cs -> any_holds m cs
  | Not c -> not (holds m c)

(* Direct recursion rather than [List.for_all (holds m)], which would
   allocate a closure per visit: the executor evaluates effect
   conditions on every firing. The same goes for [apply] below. *)
and all_hold m = function [] -> true | c :: cs -> holds m c && all_hold m cs

and any_holds m = function [] -> false | c :: cs -> holds m c || any_holds m cs

let rec reval m = function
  | RConst x -> x
  | FMark p -> Marking.fget m p
  | OfInt e -> float_of_int (eval m e)
  | FAdd (a, b) -> reval m a +. reval m b
  | FSub (a, b) -> reval m a -. reval m b
  | FMul (a, b) -> reval m a *. reval m b
  | FDiv (a, b) -> reval m a /. reval m b
  | RIf (c, a, b) -> if holds m c then reval m a else reval m b

let apply_op m = function
  | Set (p, e) -> Marking.set m p (eval m e)
  | Inc (p, e) -> Marking.add m p (eval m e)
  | FSet (p, e) -> Marking.fset m p (reval m e)
  | FInc (p, e) -> Marking.fadd m p (reval m e)

let feasible m branches =
  List.filter_map (fun (c, e) -> if holds m c then Some e else None) branches

let rec apply_ops m = function
  | [] -> ()
  | op :: ops ->
      apply_op m op;
      apply_ops m ops

let rec apply stream eff m =
  match eff with
  | Skip -> ()
  | Ops ops -> apply_ops m ops
  | Seq es -> apply_seq stream es m
  | If (c, a, b) -> apply stream (if holds m c then a else b) m
  | Pick branches -> (
      match feasible m branches with
      | [] -> failwith "Effect.apply: Pick with no feasible branch"
      | [ only ] -> apply stream only m
      | choices -> apply stream (Prng.Stream.choose_list stream choices) m)

and apply_seq stream es m =
  match es with
  | [] -> ()
  | e :: es ->
      apply stream e m;
      apply_seq stream es m

exception Too_many_outcomes of int

let max_outcomes = 4096

(* Depth-first, in continuation-passing style: each outcome reaches the
   final continuation as soon as its path through the tree is complete,
   so only the markings of unfinished forks are alive at once. A [Pick]
   runs its other branches before the first one, each on a copy, so [m]
   is still untouched when they copy it; the first branch then writes
   [m] in place. [count] is the number of outcomes the walk has opened. *)
let rec fork count eff w m k =
  match eff with
  | Skip -> k w m
  | Ops ops ->
      apply_ops m ops;
      k w m
  | Seq es -> fork_seq count es w m k
  | If (c, a, b) -> fork count (if holds m c then a else b) w m k
  | Pick branches -> (
      match feasible m branches with
      | [] -> failwith "Effect.outcomes: Pick with no feasible branch"
      | [ only ] -> fork count only w m k
      | first :: others as choices ->
          let n = List.length choices in
          count := !count + n - 1;
          if !count > max_outcomes then raise (Too_many_outcomes max_outcomes);
          let wn = w /. float_of_int n in
          List.iter (fun e -> fork count e wn (Marking.copy m) k) others;
          fork count first wn m k)

and fork_seq count es w m k =
  match es with
  | [] -> k w m
  | [ e ] -> fork count e w m k
  | e :: rest -> fork count e w m (fun w m -> fork_seq count rest w m k)

let outcomes eff m f = fork (ref 1) eff 1.0 m f

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

let cond_reads c = Uids.elements (cond_reads_acc Uids.empty c)

let rec rexpr_reads_acc acc = function
  | RConst _ -> acc
  | FMark p -> Uids.add (Place.fuid p) acc
  | OfInt e -> iexpr_reads acc e
  | FAdd (a, b) | FSub (a, b) | FMul (a, b) | FDiv (a, b) ->
      rexpr_reads_acc (rexpr_reads_acc acc a) b
  | RIf (c, a, b) ->
      rexpr_reads_acc (rexpr_reads_acc (cond_reads_acc acc c) a) b

let rexpr_reads r = Uids.elements (rexpr_reads_acc Uids.empty r)

(* An increment reads its target (Marking.add = get + set), a set does
   not. *)
let op_reads acc = function
  | Set (_, e) -> iexpr_reads acc e
  | Inc (p, e) -> iexpr_reads (Uids.add (Place.uid p) acc) e
  | FSet (_, e) -> rexpr_reads_acc acc e
  | FInc (p, e) -> rexpr_reads_acc (Uids.add (Place.fuid p) acc) e

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
   records), branches reuse [cond_fn], and arithmetic is interpreted by
   [reval]. [rexpr_fn r m = reval m r] bit-for-bit: both perform the
   identical float operations in the identical order. *)
let rec rexpr_fn = function
  | RConst x -> fun _ -> x
  | RIf (c, a, b) ->
      let c = cond_fn c and a = rexpr_fn a and b = rexpr_fn b in
      fun m -> if c m then a m else b m
  | e -> fun m -> reval m e

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

let rec pp_rexpr ppf = function
  | RConst x -> pp_float ppf x
  | FMark p -> Format.pp_print_string ppf (Place.fname p)
  | OfInt e -> Format.fprintf ppf "float(%a)" pp_iexpr e
  | FAdd (a, b) -> Format.fprintf ppf "(%a +. %a)" pp_rexpr a pp_rexpr b
  | FSub (a, b) -> Format.fprintf ppf "(%a -. %a)" pp_rexpr a pp_rexpr b
  | FMul (a, b) -> Format.fprintf ppf "(%a *. %a)" pp_rexpr a pp_rexpr b
  | FDiv (a, b) -> Format.fprintf ppf "(%a /. %a)" pp_rexpr a pp_rexpr b
  | RIf (c, a, b) ->
      Format.fprintf ppf "(if %a then %a else %a)" pp_cond c pp_rexpr a
        pp_rexpr b

let pp_op ppf = function
  | Set (p, e) -> Format.fprintf ppf "%s := %a" (Place.name p) pp_iexpr e
  | Inc (p, Int k) when k < 0 ->
      Format.fprintf ppf "%s -= %d" (Place.name p) (-k)
  | Inc (p, e) -> Format.fprintf ppf "%s += %a" (Place.name p) pp_iexpr e
  | FSet (p, e) -> Format.fprintf ppf "%s := %a" (Place.fname p) pp_rexpr e
  | FInc (p, e) -> Format.fprintf ppf "%s += %a" (Place.fname p) pp_rexpr e

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
