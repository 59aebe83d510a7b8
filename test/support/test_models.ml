type two_state = { ts_model : San.Model.t; up : San.Place.t }

let two_state ~lambda ~mu =
  let b = San.Model.Builder.create "two_state" in
  let up = San.Model.Builder.int_place b ~init:1 "up" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"fail"
    ~rate:(San.Effect.RConst lambda)
    ~guard:San.Effect.(Cmp (Mark up, Eq, Int 1))
    San.Effect.(Ops [ Set (up, Int 0) ]);
  San.Model.Builder.timed_exp_rate_ir b ~name:"repair"
    ~rate:(San.Effect.RConst mu)
    ~guard:San.Effect.(Cmp (Mark up, Eq, Int 0))
    San.Effect.(Ops [ Set (up, Int 1) ]);
  { ts_model = San.Model.Builder.build b; up }

let two_state_availability ~lambda ~mu t =
  let s = lambda +. mu in
  (mu /. s) +. (lambda /. s *. exp (-.s *. t))

type queue = { q_model : San.Model.t; q_len : San.Place.t }

let mm1k ~lambda ~mu ~k =
  let b = San.Model.Builder.create "mm1k" in
  let q_len = San.Model.Builder.int_place b "customers" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"arrive"
    ~rate:(San.Effect.RConst lambda)
    ~guard:San.Effect.(Cmp (Mark q_len, Lt, Int k))
    San.Effect.(Ops [ Inc (q_len, Int 1) ]);
  San.Model.Builder.timed_exp_rate_ir b ~name:"serve"
    ~rate:(San.Effect.RConst mu)
    ~guard:San.Effect.(Cmp (Mark q_len, Gt, Int 0))
    San.Effect.(Ops [ Inc (q_len, Int (-1)) ]);
  { q_model = San.Model.Builder.build b; q_len }

let mm1k_steady ~lambda ~mu ~k =
  let rho = lambda /. mu in
  let raw = Array.init (k + 1) (fun i -> rho ** float_of_int i) in
  let total = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun x -> x /. total) raw

type tandem = { td_model : San.Model.t; stage : San.Place.t }

let tandem ~r1 ~r2 =
  let b = San.Model.Builder.create "tandem" in
  let stage = San.Model.Builder.int_place b "stage" in
  San.Model.Builder.timed_exp_rate_ir b ~name:"step1"
    ~rate:(San.Effect.RConst r1)
    ~guard:San.Effect.(Cmp (Mark stage, Eq, Int 0))
    San.Effect.(Ops [ Set (stage, Int 1) ]);
  San.Model.Builder.timed_exp_rate_ir b ~name:"step2"
    ~rate:(San.Effect.RConst r2)
    ~guard:San.Effect.(Cmp (Mark stage, Eq, Int 1))
    San.Effect.(Ops [ Set (stage, Int 2) ]);
  { td_model = San.Model.Builder.build b; stage }

let tandem_absorbed ~r1 ~r2 t =
  (* P(T1 + T2 <= t) for independent exponentials with distinct rates:
     1 - (r2 e^{-r1 t} - r1 e^{-r2 t}) / (r2 - r1). *)
  if Float.abs (r1 -. r2) < 1e-9 then
    invalid_arg "tandem_absorbed: rates must be distinct";
  1.0 -. (((r2 *. exp (-.r1 *. t)) -. (r1 *. exp (-.r2 *. t))) /. (r2 -. r1))

type gong = { g_model : San.Model.t; g_state : San.Place.t }

let gong_transitions =
  [
    (0, 1, 0.30, "probe_finds_vulnerability");
    (1, 0, 0.50, "vulnerability_patched");
    (1, 2, 0.40, "exploitation_starts");
    (2, 3, 0.25, "redundancy_masks");
    (2, 4, 0.10, "compromise_undetected");
    (2, 5, 0.60, "attack_detected");
    (3, 0, 0.80, "masked_repair");
    (4, 8, 0.30, "undetected_failure");
    (4, 5, 0.15, "late_detection");
    (5, 6, 0.35, "degrade_gracefully");
    (5, 7, 0.35, "fail_secure");
    (5, 0, 0.20, "full_recovery");
    (6, 0, 0.50, "restore_from_degraded");
    (7, 0, 0.40, "restore_from_fail_secure");
    (8, 0, 0.125, "manual_repair");
  ]

let gong () =
  let b = San.Model.Builder.create "gong_nine_state" in
  let g_state = San.Model.Builder.int_place b "state" in
  List.iter
    (fun (src, dst, rate, label) ->
      San.Model.Builder.timed_exp_rate_ir b ~name:label
        ~rate:(San.Effect.RConst rate)
        ~guard:San.Effect.(Cmp (Mark g_state, Eq, Int src))
        San.Effect.(Ops [ Set (g_state, Int dst) ]))
    gong_transitions;
  { g_model = San.Model.Builder.build b; g_state }

let golden_models () =
  let dir = if Sys.file_exists "golden" then "golden" else "test/golden" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".model.json")
  |> List.sort compare
  |> List.map (fun f ->
         match Serial.load (Filename.concat dir f) with
         | Ok l -> (f, l.Serial.model)
         | Error e -> failwith (f ^ ": " ^ e))
