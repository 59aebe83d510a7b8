(* Power iteration on the uniformized DTMC, with optional telemetry:
   the whole solve is one [Ctmc_solve] profiler phase, the iteration
   count and final residual land in the registry's "ctmc" scope, and
   the L1-delta trajectory (sampled at power-of-two iterations plus the
   final one) goes to the convergence recorder — the solver's analogue
   of a CI-half-width-vs-reps curve. *)
let max_iter = 1_000_000

let distribution ?(tol = 1e-12) ?obs ?convergence ?profile c =
  Transient.in_solve profile @@ fun () ->
  let lambda = Transient.uniform_rate ~factor:1.05 c in
  let n = Explore.n_states c in
  let v = ref (Transient.initial_vector c) and w = ref (Array.make n 0.0) in
  let delta = ref infinity in
  let iter = ref 0 in
  let record_delta () =
    match convergence with
    | None -> ()
    | Some conv ->
        Obs.Convergence.record conv ~measure:"ctmc_steady_delta" ~n:!iter
          ~value:!delta
  in
  while !delta > tol && !iter < max_iter do
    incr iter;
    Transient.dtmc_step c lambda !v !w;
    let d = ref 0.0 in
    for i = 0 to n - 1 do
      d := !d +. Float.abs (!w.(i) -. !v.(i))
    done;
    delta := !d;
    let u = !v in
    v := !w;
    w := u;
    if !iter land (!iter - 1) = 0 then record_delta ()
  done;
  (* The loop records powers of two; the stopping iteration is usually
     not one, so close the trajectory with the final residual. *)
  if !iter > 0 && !iter land (!iter - 1) <> 0 then record_delta ();
  (match obs with
  | None -> ()
  | Some reg ->
      let module R = Obs.Registry in
      let s = R.scope reg "ctmc" in
      R.add (R.counter s "steady_iterations") !iter;
      R.set (R.gauge s "steady_lambda") lambda;
      R.set (R.gauge s "steady_delta") !delta);
  if !delta > tol then
    failwith
      (Printf.sprintf "Ctmc.Steady: no convergence after %d iterations \
                       (delta %g)" max_iter !delta);
  !v
