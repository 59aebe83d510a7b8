(* Lanczos approximation, g = 7, n = 9 coefficients (Boost / GSL values). *)
let lanczos_g = 7.0

let lanczos_coef =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0.0 then invalid_arg "Specfun.log_gamma: requires x > 0"
  else if x < 0.5 then
    (* Reflection formula keeps the Lanczos sum in its accurate region. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coef.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos_coef.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

let max_iter = 500
let eps = 3e-15
let fp_min = 1e-300

(* Series expansion for P(a,x), accurate for x < a + 1. *)
let gamma_p_series a x =
  let ap = ref a in
  let sum = ref (1.0 /. a) in
  let del = ref !sum in
  let finished = ref false in
  let iter = ref 0 in
  while (not !finished) && !iter < max_iter do
    incr iter;
    ap := !ap +. 1.0;
    del := !del *. x /. !ap;
    sum := !sum +. !del;
    if Float.abs !del < Float.abs !sum *. eps then finished := true
  done;
  !sum *. exp ((-.x) +. (a *. log x) -. log_gamma a)

(* Modified Lentz continued fraction for Q(a,x), accurate for x >= a + 1. *)
let gamma_q_cf a x =
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. fp_min) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let finished = ref false in
  while (not !finished) && !i < max_iter do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.0;
    d := (an *. !d) +. !b;
    if Float.abs !d < fp_min then d := fp_min;
    c := !b +. (an /. !c);
    if Float.abs !c < fp_min then c := fp_min;
    d := 1.0 /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.0) < eps then finished := true;
    incr i
  done;
  exp ((-.x) +. (a *. log x) -. log_gamma a) *. !h

let gamma_p a x =
  if a <= 0.0 then invalid_arg "Specfun.gamma_p: requires a > 0";
  if x < 0.0 then invalid_arg "Specfun.gamma_p: requires x >= 0";
  if x = 0.0 then 0.0
  else if x < a +. 1.0 then gamma_p_series a x
  else 1.0 -. gamma_q_cf a x

(* Continued fraction for the incomplete beta function (Lentz). *)
let beta_cf a b x =
  let qab = a +. b in
  let qap = a +. 1.0 in
  let qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if Float.abs !d < fp_min then d := fp_min;
  d := 1.0 /. !d;
  let h = ref !d in
  let m = ref 1 in
  let finished = ref false in
  while (not !finished) && !m <= max_iter do
    let mf = float_of_int !m in
    let m2 = 2.0 *. mf in
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1.0 +. (aa *. !d);
    if Float.abs !d < fp_min then d := fp_min;
    c := 1.0 +. (aa /. !c);
    if Float.abs !c < fp_min then c := fp_min;
    d := 1.0 /. !d;
    h := !h *. !d *. !c;
    let aa =
      -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2))
    in
    d := 1.0 +. (aa *. !d);
    if Float.abs !d < fp_min then d := fp_min;
    c := 1.0 +. (aa /. !c);
    if Float.abs !c < fp_min then c := fp_min;
    d := 1.0 /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.0) < eps then finished := true;
    incr m
  done;
  !h

let beta_inc a b x =
  if a <= 0.0 || b <= 0.0 then
    invalid_arg "Specfun.beta_inc: requires a, b > 0";
  if x < 0.0 || x > 1.0 then
    invalid_arg "Specfun.beta_inc: requires 0 <= x <= 1";
  if x = 0.0 then 0.0
  else if x = 1.0 then 1.0
  else begin
    let ln_front =
      log_gamma (a +. b) -. log_gamma a -. log_gamma b
      +. (a *. log x)
      +. (b *. log (1.0 -. x))
    in
    let front = exp ln_front in
    (* Use the symmetry relation to stay in the fast-converging region. *)
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. beta_cf a b x /. a
    else 1.0 -. (front *. beta_cf b a (1.0 -. x) /. b)
  end

let erf x =
  if x >= 0.0 then gamma_p 0.5 (x *. x) else -.gamma_p 0.5 (x *. x)

let erfc x = 1.0 -. erf x

let sqrt2 = sqrt 2.0

let std_normal_cdf x = 0.5 *. erfc (-.x /. sqrt2)

(* Horner evaluation, highest-degree coefficient first. *)
let polyeval coeffs x =
  Array.fold_left (fun acc c -> (acc *. x) +. c) 0.0 coeffs

(* Acklam's inverse normal CDF, then one Halley refinement step. *)
let std_normal_quantile p =
  if not (0.0 < p && p < 1.0) then
    invalid_arg "Specfun.std_normal_quantile: requires 0 < p < 1";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01; 1.0 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00; 1.0 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then
      let q = sqrt (-2.0 *. log p) in
      polyeval c q /. polyeval d q
    else if p <= 1.0 -. p_low then
      let q = p -. 0.5 in
      let r = q *. q in
      polyeval a r *. q /. polyeval b r
    else
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.(polyeval c q /. polyeval d q)
  in
  (* One Halley step against the accurate CDF. *)
  let e = std_normal_cdf x -. p in
  let u = e *. sqrt (2.0 *. Float.pi) *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))
