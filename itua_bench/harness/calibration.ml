let reference_s = 0.1

let kernel () =
  let st = Random.State.make [| 42 |] in
  let h = Hashtbl.create 4096 in
  let acc = ref 0.0 in
  for i = 1 to 240_000 do
    let k = Random.State.int st 60_000 in
    let l = Option.value (Hashtbl.find_opt h k) ~default:[] in
    Hashtbl.replace h k (if List.length l > 3 then [ i ] else i :: l);
    acc := !acc +. sqrt (float_of_int k)
  done;
  let a = Array.init 120_000 (fun _ -> Random.State.float st 1.0) in
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity (!acc, a))

let time_kernel () =
  let t0 = Obs.Clock.now_ns () in
  kernel ();
  Obs.Clock.seconds_since t0
