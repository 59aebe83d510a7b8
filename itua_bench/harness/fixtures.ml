let two_state () =
  let module E = San.Effect in
  let b = San.Model.Builder.create "two_state" in
  let up = San.Model.Builder.int_place b ~init:1 "up" in
  let step name rate from to_ =
    San.Model.Builder.timed_exp_ir b ~name
      ~rate:(fun _ -> rate)
      ~guard:(E.Cmp (E.Mark up, E.Eq, E.Int from))
      ~reads:[ San.Place.P up ]
      (E.Ops [ E.Set (up, E.Int to_) ])
  in
  step "fail" 1.0 1 0;
  step "repair" 10.0 0 1;
  San.Model.Builder.build b

let fleet ~n ~rate_of =
  let b = San.Model.Builder.create "hosts" in
  let root = Compose.Ctx.root b "hosts" in
  let states =
    Compose.replicate root "domain" ~n (fun ctx i ->
        let module E = San.Effect in
        let s = Compose.Ctx.int_place ctx "state" in
        let step name rate from to_ =
          Compose.Ctx.timed_exp_rate_ir ctx ~name ~rate:(E.RConst rate)
            ~guard:(E.Cmp (E.Mark s, E.Eq, E.Int from))
            ~reads:[ San.Place.P s ]
            (E.Ops [ E.Set (s, E.Int to_) ])
        in
        step "compromise" (rate_of i) 0 1;
        step "exclude" 0.8 1 2;
        step "restore" 0.5 2 0;
        s)
  in
  (San.Model.Builder.build b, Compose.info root, states)

let excluded states m =
  Array.fold_left
    (fun acc s -> if San.Marking.get m s = 2 then acc +. 1.0 else acc)
    0.0 states

let homogeneous_rate _ = 0.3

let hetero_multipliers =
  (Itua.Study.hetero_fleet_params ()).Itua.Params.host_rate_multipliers

let hetero_rate i = 0.3 *. hetero_multipliers.(i)
let hetero_size = Array.length hetero_multipliers
