type policy = Keep | Resample

type dist_ir =
  | DExp of Effect.rexpr
  | DDet of Effect.rexpr
  | DUniform of Effect.rexpr * Effect.rexpr
  | DErlang of int * Effect.rexpr
  | DGamma of Effect.rexpr * Effect.rexpr
  | DWeibull of Effect.rexpr * Effect.rexpr
  | DLognormal of Effect.rexpr * Effect.rexpr
  | DNormal of Effect.rexpr * Effect.rexpr

let constant_dist ir =
  let open Effect in
  match ir with
  | DExp (RConst rate) -> Some (Dist.Exponential { rate })
  | DDet (RConst value) -> Some (Dist.Deterministic { value })
  | DUniform (RConst lo, RConst hi) -> Some (Dist.Uniform { lo; hi })
  | DErlang (k, RConst rate) -> Some (Dist.Erlang { k; rate })
  | DGamma (RConst shape, RConst rate) -> Some (Dist.Gamma { shape; rate })
  | DWeibull (RConst shape, RConst scale) ->
      Some (Dist.Weibull { shape; scale })
  | DLognormal (RConst mu, RConst sigma) -> Some (Dist.Lognormal { mu; sigma })
  | DNormal (RConst mean, RConst stddev) -> Some (Dist.Normal { mean; stddev })
  | _ -> None

let dist_params = function
  | DExp r -> ("exponential", [ r ])
  | DDet r -> ("deterministic", [ r ])
  | DUniform (lo, hi) -> ("uniform", [ lo; hi ])
  | DErlang (k, r) -> (Printf.sprintf "erlang(k=%d)" k, [ r ])
  | DGamma (a, b) -> ("gamma", [ a; b ])
  | DWeibull (a, b) -> ("weibull", [ a; b ])
  | DLognormal (a, b) -> ("lognormal", [ a; b ])
  | DNormal (a, b) -> ("normal", [ a; b ])

(* All-constant parameters fold to one preallocated [Dist.t]; otherwise
   each parameter compiles via [Effect.rexpr_fn] and a fresh record is
   built per evaluation, exactly like the historical closures did. *)
let dist_fn ir =
  let open Effect in
  match constant_dist ir with
  | Some d -> fun _ -> d
  | None -> (
      match ir with
      | DExp r ->
          let r = rexpr_fn r in
          fun m -> Dist.Exponential { rate = r m }
      | DDet v ->
          let v = rexpr_fn v in
          fun m -> Dist.Deterministic { value = v m }
      | DUniform (lo, hi) ->
          let lo = rexpr_fn lo and hi = rexpr_fn hi in
          fun m -> Dist.Uniform { lo = lo m; hi = hi m }
      | DErlang (k, r) ->
          let r = rexpr_fn r in
          fun m -> Dist.Erlang { k; rate = r m }
      | DGamma (shape, rate) ->
          let shape = rexpr_fn shape and rate = rexpr_fn rate in
          fun m -> Dist.Gamma { shape = shape m; rate = rate m }
      | DWeibull (shape, scale) ->
          let shape = rexpr_fn shape and scale = rexpr_fn scale in
          fun m -> Dist.Weibull { shape = shape m; scale = scale m }
      | DLognormal (mu, sigma) ->
          let mu = rexpr_fn mu and sigma = rexpr_fn sigma in
          fun m -> Dist.Lognormal { mu = mu m; sigma = sigma m }
      | DNormal (mean, stddev) ->
          let mean = rexpr_fn mean and stddev = rexpr_fn stddev in
          fun m -> Dist.Normal { mean = mean m; stddev = stddev m })


type timing =
  | Instantaneous
  | Timed of {
      dist : Marking.t -> Dist.t;
      policy : policy;
      dist_ir : dist_ir option;
    }

type case = {
  case_weight : Marking.t -> float;
  weight_ir : Effect.rexpr;
  effect : Effect.t;
}

type t = {
  id : int;
  name : string;
  timing : timing;
  enabled : Marking.t -> bool;
  guard : Effect.cond;
  reads : Place.any list;
  cases : case array;
}

let make_case ?(weight = Effect.RConst 1.0) effect =
  { case_weight = Effect.rexpr_fn weight; weight_ir = weight; effect }

(* A lone case's weight never changes the outcome, so only activities
   with several cases read through their weights. *)
let ir_reads a =
  let params =
    match a.timing with
    | Timed { dist_ir = Some d; _ } -> snd (dist_params d)
    | Timed { dist_ir = None; _ } | Instantaneous -> []
  in
  let weights =
    if Array.length a.cases > 1 then
      Array.fold_right (fun c acc -> c.weight_ir :: acc) a.cases []
    else []
  in
  let guard = Effect.cond_reads a.guard in
  match List.concat_map Effect.rexpr_reads (params @ weights) with
  | [] -> guard
  | more -> List.sort_uniq Int.compare (guard @ more)

let is_instantaneous a =
  match a.timing with Instantaneous -> true | Timed _ -> false

let pp ppf a =
  Format.fprintf ppf "%s(%s)" a.name
    (if is_instantaneous a then "inst" else "timed")
