(* The Gong et al. nine-state model of an intrusion-tolerant system
   (DISCEX'01), cited by the ITUA paper as an early state-transition
   approach to intrusion-tolerance validation.  This example shows the
   modeling stack applied to a second system: the model is written as a
   SAN, solved exactly as a CTMC, and cross-checked by simulation.

     dune exec examples/gong_nine_state.exe

   States (encoded in one place):
     0 G   good
     1 V   vulnerable (penetration attempt in progress)
     2 A   active attack (exploitation began)
     3 MC  masked compromise (redundancy hides the damage)
     4 UC  undetected compromise
     5 TR  triage (attack detected, response being chosen)
     6 GD  graceful degradation
     7 FS  fail-secure operation
     8 F   failure
   Repairs return the system to G. Rates are illustrative (per hour). *)

let g, v, a, mc, uc, tr, gd, fs, f = (0, 1, 2, 3, 4, 5, 6, 7, 8)

let transitions =
  [
    (* from, to, rate, label *)
    (g, v, 0.30, "probe_finds_vulnerability");
    (v, g, 0.50, "vulnerability_patched");
    (v, a, 0.40, "exploitation_starts");
    (a, mc, 0.25, "redundancy_masks");
    (a, uc, 0.10, "compromise_undetected");
    (a, tr, 0.60, "attack_detected");
    (mc, g, 0.80, "masked_repair");
    (uc, f, 0.30, "undetected_failure");
    (uc, tr, 0.15, "late_detection");
    (tr, gd, 0.35, "degrade_gracefully");
    (tr, fs, 0.35, "fail_secure");
    (tr, g, 0.20, "full_recovery");
    (gd, g, 0.50, "restore_from_degraded");
    (fs, g, 0.40, "restore_from_fail_secure");
    (f, g, 0.125, "manual_repair");
  ]

let build () =
  let b = San.Model.Builder.create "gong_nine_state" in
  let state = San.Model.Builder.int_place b ~init:g "state" in
  List.iter
    (fun (src, dst, rate, label) ->
      San.Model.Builder.timed_exp_rate_ir b ~name:label
        ~rate:(San.Effect.RConst rate)
        ~guard:San.Effect.(Cmp (Mark state, Eq, Int src))
        San.Effect.(Ops [ Set (state, Int dst) ]))
    transitions;
  (San.Model.Builder.build b, state)

let () =
  let model, state = build () in
  Format.printf "%a@.@." San.Model.pp_summary model;
  let chain = Ctmc.Explore.explore model in
  Format.printf "CTMC: %d states (all nine reachable)@.@."
    (Ctmc.Explore.n_states chain);

  (* Long-run behaviour. *)
  let pi_of s =
    Ctmc.Measure.steady_average chain (fun m ->
        if San.Marking.get m state = s then 1.0 else 0.0)
  in
  let names = [ "G"; "V"; "A"; "MC"; "UC"; "TR"; "GD"; "FS"; "F" ] in
  Format.printf "Steady state distribution:@.";
  List.iteri (fun s name -> Format.printf "  %-3s %.5f@." name (pi_of s)) names;

  (* The measures Gong et al. discuss: availability (not failed or
     fail-secure) and integrity (not operating compromised). *)
  let available m =
    let s = San.Marking.get m state in
    s <> f && s <> fs
  in
  let compromised m =
    let s = San.Marking.get m state in
    s = uc || s = f
  in
  Format.printf "@.Long-run availability:            %.5f@."
    (Ctmc.Measure.steady_average chain (fun m ->
         if available m then 1.0 else 0.0));
  Format.printf "Long-run integrity:               %.5f@."
    (Ctmc.Measure.steady_average chain (fun m ->
         if compromised m then 0.0 else 1.0));
  let by t =
    Ctmc.Measure.ever chain ~until:t (fun m -> San.Marking.get m state = f)
  in
  Format.printf "P(security failure by 24h):       %.5f@." (by 24.0);
  Format.printf "P(security failure by 168h):      %.5f@." (by 168.0);

  (* Simulation cross-check on the 24h first-passage probability. *)
  let spec =
    Sim.Runner.spec ~model ~horizon:24.0
      [
        Sim.Reward.ever ~name:"failed by 24h" ~until:24.0 (fun m ->
            San.Marking.get m state = f);
        Sim.Reward.probability_in_interval ~name:"available [0,24h]"
          ~until:24.0 available;
      ]
  in
  let results = Sim.Runner.run ~seed:4L ~reps:20_000 spec in
  Format.printf "@.Simulation cross-check (20000 replications):@.";
  List.iter
    (fun (r : Sim.Runner.result) ->
      Format.printf "  %-22s %a@." r.name Stats.Ci.pp r.ci)
    results
