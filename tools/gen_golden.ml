(* Regenerates the committed golden model files:

     test/golden/<fixture>.model.json   (test-support fixtures)
     examples/itua.model.json           (small ITUA configuration)
     test/golden/itua_small.check.json  (its check certificate)

   Run from the repository root after an intentional format change:

     dune exec tools/gen_golden.exe

   The fixture parameters and the ITUA topology must stay in sync with
   test/test_serial.ml and the CI golden gate. The certificate is what
   [itua_sim check --strict --invariants --symmetry --json] writes for
   that configuration ([Analysis.Check.certificate] assembles both). *)

let write path doc =
  Serial.save path doc;
  Printf.printf "wrote %s\n" path

let () =
  List.iter
    (fun (name, model) ->
      write
        (Filename.concat "test/golden" (name ^ ".model.json"))
        (Serial.to_json model))
    [
      ( "two_state",
        (Test_models.two_state ~lambda:0.2 ~mu:1.0).Test_models.ts_model );
      ("mm1k", (Test_models.mm1k ~lambda:0.8 ~mu:1.0 ~k:5).Test_models.q_model);
      ("tandem", (Test_models.tandem ~r1:1.0 ~r2:0.5).Test_models.td_model);
      ("gong", (Test_models.gong ()).Test_models.g_model);
    ];
  let p =
    {
      Itua.Params.default with
      num_domains = 2;
      hosts_per_domain = 2;
      num_apps = 2;
      num_reps = 2;
    }
  in
  let h = Itua.Model.build p in
  write "examples/itua.model.json"
    (Serial.to_json
       ~composition:h.Itua.Model.composition
       ~annotations:[ ("params", Itua.Params.to_json p) ]
       h.Itua.Model.model);
  let report =
    Analysis.Check.run ~composition:h.Itua.Model.composition
      ~laws:(Itua.Invariant.conservation_laws h)
      h.Itua.Model.model
  in
  let orbits =
    Analysis.Orbit.analyse h.Itua.Model.model h.Itua.Model.composition
  in
  write "test/golden/itua_small.check.json"
    (snd (Analysis.Check.certificate ~orbits report))
