(* One step of the uniformized DTMC: w = v P with P = I + Q/lambda,
   written over [w]. The solvers alternate two vectors, so a solve
   allocates none per step. *)
let dtmc_step c lambda v w =
  let n = Array.length v in
  Array.fill w 0 n 0.0;
  for i = 0 to n - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then begin
      let out = Explore.exit_rate c i in
      w.(i) <- w.(i) +. (vi *. (1.0 -. (out /. lambda)));
      List.iter
        (fun (j, r) -> w.(j) <- w.(j) +. (vi *. r /. lambda))
        (Explore.transitions c i)
    end
  done

let uniform_rate ~factor c = Float.max (Explore.max_exit_rate c) 1e-9 *. factor

let initial_vector c =
  let v = Array.make (Explore.n_states c) 0.0 in
  List.iter (fun (i, p) -> v.(i) <- v.(i) +. p) (Explore.initial_dist c);
  v

(* The truncated Poisson mass. *)
let epsilon = 1e-12

(* Log-space Poisson weights for mean [mu], truncated to cumulative mass
   >= 1 - epsilon.  Returns (kmax, weights.(0..kmax)). *)
let poisson_weights ~mu =
  if mu = 0.0 then [| 1.0 |]
  else begin
    let log_w k =
      (-.mu) +. (float_of_int k *. log mu)
      -. Stats.Specfun.log_gamma (float_of_int k +. 1.0)
    in
    (* Walk right from the mode until the tail is below epsilon. *)
    let rec find_kmax k acc =
      let w = exp (log_w k) in
      let acc = acc +. w in
      if acc >= 1.0 -. epsilon then k else find_kmax (k + 1) acc
    in
    let kmax = find_kmax 0 0.0 in
    Array.init (kmax + 1) (fun k -> exp (log_w k))
  end

let check_time t =
  if t < 0.0 then invalid_arg "Ctmc.Transient: negative time"

let in_solve profile f =
  match profile with
  | None -> f ()
  | Some p -> Obs.Profile.span p Obs.Profile.Ctmc_solve f

(* Telemetry shared by both solvers: the truncated Poisson support size
   is the number of uniformized DTMC steps actually taken. *)
let export_obs obs ~lambda ~steps =
  match obs with
  | None -> ()
  | Some reg ->
      let module R = Obs.Registry in
      let s = R.scope reg "ctmc" in
      R.add (R.counter s "uniformization_steps") steps;
      R.set (R.gauge s "uniformization_lambda") lambda

let probabilities ?obs ?profile c ~t =
  check_time t;
  in_solve profile @@ fun () ->
  let v0 = initial_vector c in
  if t = 0.0 then v0
  else begin
    let lambda = uniform_rate ~factor:1.02 c in
    let weights = poisson_weights ~mu:(lambda *. t) in
    export_obs obs ~lambda ~steps:(Array.length weights);
    let n = Array.length v0 in
    let result = Array.make n 0.0 in
    let v = ref v0 and spare = ref (Array.make n 0.0) in
    Array.iteri
      (fun k w ->
        if k > 0 then begin
          dtmc_step c lambda !v !spare;
          let u = !v in
          v := !spare;
          spare := u
        end;
        for i = 0 to n - 1 do
          result.(i) <- result.(i) +. (w *. !v.(i))
        done)
      weights;
    result
  end

let accumulated ?obs ?profile c ~t =
  check_time t;
  in_solve profile @@ fun () ->
  let n = Explore.n_states c in
  if t = 0.0 then Array.make n 0.0
  else begin
    let lambda = uniform_rate ~factor:1.02 c in
    let weights = poisson_weights ~mu:(lambda *. t) in
    export_obs obs ~lambda ~steps:(Array.length weights);
    (* L(t) = (1/lambda) sum_k (1 - sum_{j<=k} w_j) v_k, truncated where the
       survivor weight is below epsilon relative mass; the truncation error
       is folded in by computing survivors against the renormalized sum. *)
    let kmax = Array.length weights - 1 in
    let survivors = Array.make (kmax + 1) 0.0 in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cum = ref 0.0 in
    for k = 0 to kmax do
      cum := !cum +. (weights.(k) /. total);
      survivors.(k) <- Float.max 0.0 (1.0 -. !cum)
    done;
    let result = Array.make n 0.0 in
    let v = ref (initial_vector c) and spare = ref (Array.make n 0.0) in
    for k = 0 to kmax do
      if k > 0 then begin
        dtmc_step c lambda !v !spare;
        let u = !v in
        v := !spare;
        spare := u
      end;
      let w = survivors.(k) /. lambda in
      if w > 0.0 then
        for i = 0 to n - 1 do
          result.(i) <- result.(i) +. (w *. !v.(i))
        done
    done;
    (* The truncated tail contributes (t - sum result) spread according to
       v_kmax; fold it in so the entries sum to t exactly. *)
    let mass = Array.fold_left ( +. ) 0.0 result in
    let deficit = t -. mass in
    if deficit > 0.0 then begin
      let vk = !v in
      for i = 0 to n - 1 do
        result.(i) <- result.(i) +. (deficit *. vk.(i))
      done
    end;
    result
  end
