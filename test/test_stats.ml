(* Tests for the stats library: special functions against known values,
   Student-t critical values against tables, Welford against naive moments,
   confidence intervals, and Kolmogorov-Smirnov tests. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected actual
      tol

(* --- special functions --- *)

let test_log_gamma_known () =
  close "lgamma(1)" 0.0 (Stats.Specfun.log_gamma 1.0);
  close "lgamma(2)" 0.0 (Stats.Specfun.log_gamma 2.0);
  close "lgamma(5) = ln 24" (log 24.0) (Stats.Specfun.log_gamma 5.0);
  close "lgamma(0.5) = ln sqrt(pi)"
    (0.5 *. log Float.pi)
    (Stats.Specfun.log_gamma 0.5);
  (* Γ(10.5) via Γ(x+1) = xΓ(x) down from Γ(0.5). *)
  let g105 =
    List.fold_left
      (fun acc k -> acc +. log (float_of_int k +. 0.5))
      (0.5 *. log Float.pi)
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  close ~tol:1e-8 "lgamma(10.5)" g105 (Stats.Specfun.log_gamma 10.5)

let test_log_gamma_factorials () =
  (* lgamma(n+1) = ln n! for a range of n. *)
  let fact = ref 1.0 in
  for n = 1 to 20 do
    fact := !fact *. float_of_int n;
    close ~tol:1e-8
      (Printf.sprintf "lgamma(%d)" (n + 1))
      (log !fact)
      (Stats.Specfun.log_gamma (float_of_int (n + 1)))
  done

let test_gamma_p_exponential () =
  (* P(1, x) = 1 - e^-x. *)
  List.iter
    (fun x ->
      close ~tol:1e-10
        (Printf.sprintf "P(1,%g)" x)
        (1.0 -. exp (-.x))
        (Stats.Specfun.gamma_p 1.0 x))
    [ 0.0; 0.1; 0.5; 1.0; 2.0; 5.0; 10.0; 50.0 ]

let test_gamma_p_erlang2 () =
  (* P(2, x) = 1 - e^-x (1 + x). *)
  List.iter
    (fun x ->
      close ~tol:1e-10
        (Printf.sprintf "P(2,%g)" x)
        (1.0 -. (exp (-.x) *. (1.0 +. x)))
        (Stats.Specfun.gamma_p 2.0 x))
    [ 0.0; 0.3; 1.0; 3.0; 8.0; 30.0 ]

let test_gamma_p_monotone () =
  let prev = ref (-1.0) in
  for i = 0 to 100 do
    let x = float_of_int i /. 10.0 in
    let p = Stats.Specfun.gamma_p 3.7 x in
    if p < !prev then Alcotest.failf "gamma_p not monotone at %g" x;
    prev := p
  done;
  close ~tol:1e-6 "P(3.7, large) -> 1" 1.0 (Stats.Specfun.gamma_p 3.7 100.0)

let test_beta_inc_uniform () =
  (* I_x(1,1) = x. *)
  List.iter
    (fun x -> close (Printf.sprintf "I_%g(1,1)" x) x (Stats.Specfun.beta_inc 1.0 1.0 x))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let test_beta_inc_closed_form () =
  (* I_x(2,2) = 3x^2 - 2x^3. *)
  List.iter
    (fun x ->
      close ~tol:1e-10
        (Printf.sprintf "I_%g(2,2)" x)
        ((3.0 *. x *. x) -. (2.0 *. x *. x *. x))
        (Stats.Specfun.beta_inc 2.0 2.0 x))
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let test_beta_inc_symmetry () =
  List.iter
    (fun (a, b, x) ->
      close ~tol:1e-10
        (Printf.sprintf "symmetry a=%g b=%g x=%g" a b x)
        1.0
        (Stats.Specfun.beta_inc a b x +. Stats.Specfun.beta_inc b a (1.0 -. x)))
    [ (2.0, 3.0, 0.2); (0.5, 0.5, 0.7); (5.0, 1.5, 0.45); (10.0, 10.0, 0.9) ]

let test_normal_cdf_known () =
  close ~tol:1e-7 "Phi(0)" 0.5 (Stats.Specfun.std_normal_cdf 0.0);
  close ~tol:1e-7 "Phi(1.959964)" 0.975
    (Stats.Specfun.std_normal_cdf 1.959963984540054);
  close ~tol:1e-7 "Phi(-1)" 0.15865525393145707
    (Stats.Specfun.std_normal_cdf (-1.0));
  close ~tol:1e-7 "Phi(2.326348)" 0.99
    (Stats.Specfun.std_normal_cdf 2.3263478740408408)

let test_normal_quantile_roundtrip () =
  List.iter
    (fun p ->
      close ~tol:1e-9
        (Printf.sprintf "Phi(Phi^-1(%g))" p)
        p
        (Stats.Specfun.std_normal_cdf (Stats.Specfun.std_normal_quantile p)))
    [ 1e-6; 0.001; 0.025; 0.2; 0.5; 0.8; 0.975; 0.999; 1.0 -. 1e-6 ]

let test_erf_known () =
  close ~tol:1e-9 "erf(0)" 0.0 (Stats.Specfun.erf 0.0);
  close ~tol:1e-7 "erf(1)" 0.8427007929497149 (Stats.Specfun.erf 1.0);
  close ~tol:1e-7 "erf(-1)" (-0.8427007929497149) (Stats.Specfun.erf (-1.0));
  close ~tol:1e-7 "erfc(2)" 0.004677734981063127 (Stats.Specfun.erfc 2.0)

(* --- Student t --- *)

let test_t_critical_table () =
  (* Values from standard t tables, two-sided 95%. *)
  List.iter
    (fun (df, expected) ->
      close ~tol:2e-3
        (Printf.sprintf "t(df=%g)" df)
        expected
        (Stats.Student_t.critical ~df ~confidence:0.95))
    [
      (1.0, 12.706); (2.0, 4.303); (5.0, 2.571); (10.0, 2.228); (29.0, 2.045);
      (100.0, 1.984); (1000.0, 1.962);
    ]

let test_t_critical_99 () =
  List.iter
    (fun (df, expected) ->
      close ~tol:2e-3
        (Printf.sprintf "t99(df=%g)" df)
        expected
        (Stats.Student_t.critical ~df ~confidence:0.99))
    [ (5.0, 4.032); (10.0, 3.169); (30.0, 2.750) ]

let test_t_cdf_symmetry () =
  List.iter
    (fun x ->
      close ~tol:1e-10
        (Printf.sprintf "cdf(%g)+cdf(-%g)=1" x x)
        1.0
        (Stats.Student_t.cdf ~df:7.0 x +. Stats.Student_t.cdf ~df:7.0 (-.x)))
    [ 0.0; 0.5; 1.3; 2.6; 10.0 ]

let test_t_quantile_roundtrip () =
  List.iter
    (fun p ->
      close ~tol:1e-8
        (Printf.sprintf "cdf(q(%g))" p)
        p
        (Stats.Student_t.cdf ~df:12.0 (Stats.Student_t.quantile ~df:12.0 p)))
    [ 0.01; 0.1; 0.5; 0.9; 0.99 ]

(* --- Welford --- *)

let naive_mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let naive_var xs =
  let m = naive_mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
  /. float_of_int (Array.length xs - 1)

let test_welford_simple () =
  let acc = Stats.Welford.create () in
  List.iter (Stats.Welford.add acc) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  close "mean" 5.0 (Stats.Welford.mean acc);
  close ~tol:1e-9 "variance" (32.0 /. 7.0) (Stats.Welford.variance acc);
  close "min" 2.0 (Stats.Welford.min_value acc);
  close "max" 9.0 (Stats.Welford.max_value acc);
  Alcotest.(check int) "count" 8 (Stats.Welford.count acc)

let test_welford_empty () =
  let acc = Stats.Welford.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Welford.mean acc));
  Alcotest.(check bool) "variance nan" true
    (Float.is_nan (Stats.Welford.variance acc))

let prop_welford_matches_naive =
  QCheck2.Test.make ~name:"welford matches naive moments" ~count:200
    QCheck2.Gen.(array_size (int_range 2 200) (float_range (-1e4) 1e4))
    (fun xs ->
      let acc = Stats.Welford.create () in
      Array.iter (Stats.Welford.add acc) xs;
      Float.abs (Stats.Welford.mean acc -. naive_mean xs) < 1e-6
      && Float.abs (Stats.Welford.variance acc -. naive_var xs)
         < 1e-4 *. (1.0 +. naive_var xs))

let prop_welford_merge =
  QCheck2.Test.make ~name:"merge equals concatenation" ~count:200
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 100) (float_range (-1e3) 1e3))
        (array_size (int_range 1 100) (float_range (-1e3) 1e3)))
    (fun (xs, ys) ->
      let a = Stats.Welford.create () in
      Array.iter (Stats.Welford.add a) xs;
      let b = Stats.Welford.create () in
      Array.iter (Stats.Welford.add b) ys;
      let merged = Stats.Welford.merge a b in
      let whole = Stats.Welford.create () in
      Array.iter (Stats.Welford.add whole) (Array.append xs ys);
      Stats.Welford.count merged = Stats.Welford.count whole
      && Float.abs (Stats.Welford.mean merged -. Stats.Welford.mean whole)
         < 1e-8 *. (1.0 +. Float.abs (Stats.Welford.mean whole))
      && (Stats.Welford.count whole < 2
         || Float.abs
              (Stats.Welford.variance merged -. Stats.Welford.variance whole)
            < 1e-6 *. (1.0 +. Stats.Welford.variance whole)))

(* --- confidence intervals --- *)

let test_ci_known_sample () =
  (* n=4, mean 5, sd = sqrt(20/3); t(3, .95) = 3.182. *)
  let ci = Stats.Ci.of_samples [| 2.0; 4.0; 6.0; 8.0 |] in
  close "ci mean" 5.0 ci.Stats.Ci.mean;
  let sd = sqrt (20.0 /. 3.0) in
  close ~tol:1e-3 "ci half width" (3.182 *. sd /. 2.0) ci.Stats.Ci.half_width;
  Alcotest.(check bool) "contains mean" true (Stats.Ci.contains ci 5.0);
  Alcotest.(check bool) "excludes far point" false (Stats.Ci.contains ci 50.0)

let test_ci_single_sample () =
  let ci = Stats.Ci.of_samples [| 3.5 |] in
  close "mean of single" 3.5 ci.Stats.Ci.mean;
  Alcotest.(check bool) "half width nan" true
    (Float.is_nan ci.Stats.Ci.half_width)

let test_ci_coverage () =
  (* 95% CI over standard-normal samples should contain 0 about 95% of the
     time; with 400 trials the count should land well inside [355, 399]. *)
  let s = Prng.Stream.create ~seed:2024L in
  let trials = 400 in
  let hits = ref 0 in
  for _ = 1 to trials do
    let samples =
      Array.init 20 (fun _ ->
          Dist.sample (Dist.Normal { mean = 0.0; stddev = 1.0 }) s)
    in
    if Stats.Ci.contains (Stats.Ci.of_samples samples) 0.0 then incr hits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "coverage %d/400 in [355,400]" !hits)
    true
    (!hits >= 355)

(* --- splitting estimator --- *)

let test_splitting_point_estimate () =
  let e =
    Stats.Splitting.estimate
      [|
        { Stats.Splitting.trials = 1000; hits = 100 };
        { trials = 400; hits = 40 };
        { trials = 80; hits = 8 };
      |]
  in
  close "product of ratios" 1e-3 e.Stats.Splitting.probability;
  close "ci mean is the estimate" 1e-3 e.Stats.Splitting.ci.Stats.Ci.mean;
  (* Σ (1-p)/(n·p) with p = 0.1 at n = 1000, 400, 80. *)
  let expect_rv = (0.9 /. 100.0) +. (0.9 /. 40.0) +. (0.9 /. 8.0) in
  close "relative variance" expect_rv e.Stats.Splitting.rel_variance;
  close "absolute variance" (expect_rv *. 1e-6) (Stats.Splitting.variance e);
  (* Smallest stage has 80 trials: t(79) ≈ 1.99. *)
  let t = Stats.Student_t.critical ~df:79.0 ~confidence:0.95 in
  close ~tol:1e-12 "half width"
    (t *. 1e-3 *. sqrt expect_rv)
    e.Stats.Splitting.ci.Stats.Ci.half_width

let test_splitting_single_stage_matches_binomial () =
  (* One stage is a plain binomial proportion: relative variance
     (1-p)/(np). *)
  let e =
    Stats.Splitting.estimate [| { Stats.Splitting.trials = 500; hits = 50 } |]
  in
  close "p" 0.1 e.Stats.Splitting.probability;
  close "binomial rel var" (0.9 /. 50.0) e.Stats.Splitting.rel_variance

let test_splitting_zero_hits () =
  let e =
    Stats.Splitting.estimate ~confidence:0.95
      [|
        { Stats.Splitting.trials = 1000; hits = 200 }; { trials = 600; hits = 0 };
      |]
  in
  close "estimate is zero" 0.0 e.Stats.Splitting.probability;
  Alcotest.(check bool) "rel variance undefined" true
    (Float.is_nan e.Stats.Splitting.rel_variance);
  close "variance zero" 0.0 (Stats.Splitting.variance e);
  (* Upper bound: 0.2 · (-ln 0.05)/600 — the rule of three. *)
  close ~tol:1e-12 "rule-of-three upper bound"
    (0.2 *. -.log 0.05 /. 600.0)
    (Stats.Ci.upper e.Stats.Splitting.ci)

let test_splitting_validation () =
  let rejects name stages =
    Alcotest.(check bool) name true
      (match Stats.Splitting.estimate stages with
      | (_ : Stats.Splitting.estimate) -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "empty" [||];
  rejects "zero trials" [| { Stats.Splitting.trials = 0; hits = 0 } |];
  rejects "hits above trials" [| { Stats.Splitting.trials = 5; hits = 6 } |];
  rejects "negative hits" [| { Stats.Splitting.trials = 5; hits = -1 } |];
  rejects "stage after a dry stage"
    [|
      { Stats.Splitting.trials = 10; hits = 0 }; { trials = 10; hits = 1 };
    |]

(* --- Kolmogorov-Smirnov --- *)

let test_ks_perfect_grid () =
  (* Sample exactly at the (i - 0.5)/n quantiles of U(0,1): D = 1/(2n). *)
  let n = 100 in
  let xs = Array.init n (fun i -> (float_of_int i +. 0.5) /. float_of_int n) in
  close ~tol:1e-12 "grid statistic" (0.5 /. float_of_int n)
    (Stats.Ks.statistic ~cdf:(fun x -> x) xs)

let test_ks_accepts_true_distribution () =
  let s = Prng.Stream.create ~seed:271L in
  let d = Dist.Exponential { rate = 2.0 } in
  let xs = Array.init 5_000 (fun _ -> Dist.sample d s) in
  let stat = Stats.Ks.statistic ~cdf:(Dist.cdf d) xs in
  let p = Stats.Ks.significance ~n:5_000 stat in
  if p < 0.01 then
    Alcotest.failf "true distribution rejected: D=%.4f p=%.4g" stat p

let test_ks_rejects_wrong_distribution () =
  let s = Prng.Stream.create ~seed:271L in
  let xs =
    Array.init 5_000 (fun _ ->
        Dist.sample (Dist.Exponential { rate = 2.0 }) s)
  in
  let wrong = Dist.Exponential { rate = 2.5 } in
  let stat = Stats.Ks.statistic ~cdf:(Dist.cdf wrong) xs in
  let p = Stats.Ks.significance ~n:5_000 stat in
  if p > 1e-4 then
    Alcotest.failf "wrong distribution accepted: D=%.4f p=%.4g" stat p

let test_ks_significance_monotone () =
  let prev = ref 1.1 in
  List.iter
    (fun d ->
      let p = Stats.Ks.significance ~n:1000 d in
      if p > !prev +. 1e-12 then Alcotest.failf "p not decreasing at D=%g" d;
      prev := p)
    [ 0.001; 0.01; 0.02; 0.05; 0.1; 0.2 ]

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [ prop_welford_matches_naive; prop_welford_merge ]
  in
  Alcotest.run "stats"
    [
      ( "specfun",
        [
          Alcotest.test_case "log_gamma known" `Quick test_log_gamma_known;
          Alcotest.test_case "log_gamma factorials" `Quick
            test_log_gamma_factorials;
          Alcotest.test_case "gamma_p exponential" `Quick
            test_gamma_p_exponential;
          Alcotest.test_case "gamma_p erlang-2" `Quick test_gamma_p_erlang2;
          Alcotest.test_case "gamma_p monotone" `Quick test_gamma_p_monotone;
          Alcotest.test_case "beta_inc uniform" `Quick test_beta_inc_uniform;
          Alcotest.test_case "beta_inc closed form" `Quick
            test_beta_inc_closed_form;
          Alcotest.test_case "beta_inc symmetry" `Quick test_beta_inc_symmetry;
          Alcotest.test_case "normal cdf known" `Quick test_normal_cdf_known;
          Alcotest.test_case "normal quantile roundtrip" `Quick
            test_normal_quantile_roundtrip;
          Alcotest.test_case "erf known" `Quick test_erf_known;
        ] );
      ( "student-t",
        [
          Alcotest.test_case "critical values 95%" `Quick test_t_critical_table;
          Alcotest.test_case "critical values 99%" `Quick test_t_critical_99;
          Alcotest.test_case "cdf symmetry" `Quick test_t_cdf_symmetry;
          Alcotest.test_case "quantile roundtrip" `Quick
            test_t_quantile_roundtrip;
        ] );
      ( "welford",
        [
          Alcotest.test_case "known sample" `Quick test_welford_simple;
          Alcotest.test_case "empty accumulator" `Quick test_welford_empty;
        ] );
      ( "ci",
        [
          Alcotest.test_case "known sample" `Quick test_ci_known_sample;
          Alcotest.test_case "single sample" `Quick test_ci_single_sample;
          Alcotest.test_case "coverage" `Slow test_ci_coverage;
        ] );
      ( "splitting",
        [
          Alcotest.test_case "point estimate and ci" `Quick
            test_splitting_point_estimate;
          Alcotest.test_case "single stage is binomial" `Quick
            test_splitting_single_stage_matches_binomial;
          Alcotest.test_case "zero hits" `Quick test_splitting_zero_hits;
          Alcotest.test_case "validation" `Quick test_splitting_validation;
        ] );
      ( "kolmogorov-smirnov",
        [
          Alcotest.test_case "grid statistic" `Quick test_ks_perfect_grid;
          Alcotest.test_case "accepts true" `Slow
            test_ks_accepts_true_distribution;
          Alcotest.test_case "rejects wrong" `Slow
            test_ks_rejects_wrong_distribution;
          Alcotest.test_case "significance monotone" `Quick
            test_ks_significance_monotone;
        ] );
      ("properties", props);
    ]
