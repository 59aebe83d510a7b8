let absorbing_states c =
  let n = Explore.n_states c in
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if Explore.exit_rate c i = 0.0 then i :: acc else acc)
  in
  collect (n - 1) []

let max_sweeps = 1_000_000

(* Gauss-Seidel on x_i = b_i + sum_j (r_ij / E_i) x_j over transient
   states; absorbing states are fixed at [absorbing_value i]. *)
let solve_first_step ?(tol = 1e-12) c ~b ~absorbing_value =
  let n = Explore.n_states c in
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    if Explore.exit_rate c i = 0.0 then x.(i) <- absorbing_value i
  done;
  let delta = ref infinity in
  let sweeps = ref 0 in
  while !delta > tol && !sweeps < max_sweeps do
    incr sweeps;
    let d = ref 0.0 in
    for i = 0 to n - 1 do
      let e = Explore.exit_rate c i in
      if e > 0.0 then begin
        let acc = ref (b i) in
        List.iter
          (fun (j, r) -> acc := !acc +. (r /. e *. x.(j)))
          (Explore.transitions c i);
        let prev = x.(i) in
        x.(i) <- !acc;
        d := Float.max !d (Float.abs (x.(i) -. prev))
      end
    done;
    delta := !d
  done;
  if !delta > tol then
    failwith
      (Printf.sprintf
         "Ctmc.Absorb: no convergence after %d sweeps (delta %g); is an \
          absorbing state reachable with probability 1?"
         max_sweeps !delta);
  x

let from_initial c x =
  List.fold_left
    (fun acc (i, p) -> acc +. (p *. x.(i)))
    0.0 (Explore.initial_dist c)

let mean_time_to_absorption ?tol c =
  if absorbing_states c = [] then
    failwith "Ctmc.Absorb: chain has no absorbing state";
  let x =
    solve_first_step ?tol c
      ~b:(fun i -> 1.0 /. Explore.exit_rate c i)
      ~absorbing_value:(fun _ -> 0.0)
  in
  from_initial c x

let absorption_probabilities ?tol c ~target =
  if absorbing_states c = [] then
    failwith "Ctmc.Absorb: chain has no absorbing state";
  let x =
    solve_first_step ?tol c
      ~b:(fun _ -> 0.0)
      ~absorbing_value:(fun i -> if target i then 1.0 else 0.0)
  in
  from_initial c x
