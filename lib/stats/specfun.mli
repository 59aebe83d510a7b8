(** Special functions needed by the statistics and distribution layers.

    All implementations are classical series / continued-fraction
    expansions (Lanczos, Numerical-Recipes-style Lentz continued fractions,
    Acklam's normal quantile) with double-precision accuracy around 1e-10
    or better on the domains used here. *)

val log_gamma : float -> float
(** [log_gamma x] is ln Γ(x) for [x > 0] (Lanczos approximation,
    g = 7, n = 9; relative error below 1e-13). *)

val gamma_p : float -> float -> float
(** [gamma_p a x] is the regularized lower incomplete gamma function
    P(a, x) = γ(a, x) / Γ(a), for [a > 0] and [x >= 0]. *)

val beta_inc : float -> float -> float -> float
(** [beta_inc a b x] is the regularized incomplete beta function
    I_x(a, b), for [a, b > 0] and [0 <= x <= 1]. *)

val erf : float -> float
(** Error function. *)

val erfc : float -> float
(** Complementary error function. *)

val std_normal_cdf : float -> float
(** Φ(x), the standard normal cumulative distribution function. *)

val std_normal_quantile : float -> float
(** [std_normal_quantile p] is Φ⁻¹(p) for [0 < p < 1] (Acklam's rational
    approximation refined by one Halley step; absolute error below
    1e-13). *)
