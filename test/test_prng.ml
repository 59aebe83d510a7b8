(* Tests for the prng library: determinism, substream independence, and
   statistical sanity of the sampling primitives. *)

let stream seed = Prng.Stream.create ~seed:(Int64.of_int seed)

let draws s n = List.init n (fun _ -> Prng.Stream.bits64 s)

let test_determinism () =
  let a = draws (stream 42) 64 in
  let b = draws (stream 42) 64 in
  Alcotest.(check (list int64)) "same seed, same sequence" a b

let test_seed_sensitivity () =
  let a = draws (stream 42) 16 in
  let b = draws (stream 43) 16 in
  Alcotest.(check bool) "different seeds differ" true (a <> b)

let test_substream_zero_is_identity () =
  let root = stream 7 in
  let sub = Prng.Stream.substream root 0 in
  Alcotest.(check (list int64))
    "substream 0 equals root sequence" (draws root 32) (draws sub 32)

let test_substream_successor_agree () =
  let root = stream 7 in
  let by_index = Prng.Stream.substream root 3 in
  let by_succ =
    Prng.Stream.successor
      (Prng.Stream.successor (Prng.Stream.successor root))
  in
  Alcotest.(check (list int64))
    "substream 3 = successor^3" (draws by_index 32) (draws by_succ 32)

let test_walk_visits_substreams () =
  let root = stream 7 in
  let before = draws (Prng.Stream.substream root 0) 4 in
  let seen = ref [] in
  let after =
    Prng.Stream.walk root 4 (fun i s ->
        (* Drawing from the given stream must not shift the next one. *)
        seen := (i, draws s 4) :: !seen)
  in
  Alcotest.(check (list (pair int (list int64))))
    "stream i is substream i"
    (List.init 4 (fun i -> (i, draws (Prng.Stream.substream root i) 4)))
    (List.rev !seen);
  Alcotest.(check (list int64))
    "returns substream n"
    (draws (Prng.Stream.substream root 4) 8)
    (draws after 8);
  Alcotest.(check (list int64)) "root untouched" before (draws root 4)

let test_substreams_distinct () =
  let root = stream 11 in
  let s1 = draws (Prng.Stream.substream root 1) 16 in
  let s2 = draws (Prng.Stream.substream root 2) 16 in
  Alcotest.(check bool) "substreams 1 and 2 differ" true (s1 <> s2)

let test_substream_does_not_disturb_root () =
  let root = stream 13 in
  let before = draws (Prng.Stream.substream root 0) 8 in
  ignore (Prng.Stream.substream root 5);
  let after = draws (Prng.Stream.substream root 0) 8 in
  Alcotest.(check (list int64)) "root untouched by substream" before after

let test_split_differs_from_parent () =
  let root = stream 17 in
  let child = Prng.Stream.split root in
  Alcotest.(check bool)
    "split stream differs" true
    (draws root 16 <> draws child 16)

let test_float_range_unit () =
  let s = stream 5 in
  for _ = 1 to 10_000 do
    let x = Prng.Stream.float s in
    if not (0.0 <= x && x < 1.0) then
      Alcotest.failf "float out of [0,1): %g" x
  done

let test_float_moments () =
  let s = stream 23 in
  let n = 200_000 in
  let acc = Stats.Welford.create () in
  for _ = 1 to n do
    Stats.Welford.add acc (Prng.Stream.float s)
  done;
  let mean = Stats.Welford.mean acc in
  let var = Stats.Welford.variance acc in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.005);
  Alcotest.(check bool)
    "variance near 1/12" true
    (Float.abs (var -. (1.0 /. 12.0)) < 0.005)

(* One-sample Kolmogorov-Smirnov test of the unit float against the
   U(0,1) CDF: the empirical distribution must fit everywhere, not only
   in its first two moments. *)
let test_float_uniform_ks () =
  let s = stream 99 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Prng.Stream.float s) in
  let d = Stats.Ks.statistic ~cdf:(fun x -> x) xs in
  let p = Stats.Ks.significance ~n d in
  if p < 1e-3 then Alcotest.failf "U(0,1) rejected: D=%.4f p=%.4g" d p

let test_float_pos_positive () =
  let s = stream 29 in
  for _ = 1 to 10_000 do
    let x = Prng.Stream.float_pos s in
    if not (0.0 < x && x <= 1.0) then
      Alcotest.failf "float_pos out of (0,1]: %g" x
  done

let test_int_uniformity () =
  let s = stream 31 in
  let n_buckets = 7 in
  let counts = Array.make n_buckets 0 in
  let n = 70_000 in
  for _ = 1 to n do
    let i = Prng.Stream.int s n_buckets in
    counts.(i) <- counts.(i) + 1
  done;
  let expected = float_of_int n /. float_of_int n_buckets in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      if dev > 0.05 then
        Alcotest.failf "bucket %d deviates %.1f%% from uniform" i (100. *. dev))
    counts

let test_bernoulli_frequency () =
  let s = stream 37 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.Stream.bernoulli s 0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "freq near 0.3" true (Float.abs (f -. 0.3) < 0.01)

let test_categorical_frequencies () =
  let s = stream 41 in
  let w = [| 1.0; 2.0; 3.0; 4.0 |] in
  let counts = Array.make 4 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Prng.Stream.categorical s w in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = w.(i) /. 10.0 in
      let f = float_of_int c /. float_of_int n in
      if Float.abs (f -. expected) > 0.01 then
        Alcotest.failf "category %d: freq %.4f expected %.4f" i f expected)
    counts

let test_categorical_zero_weight_never_chosen () =
  let s = stream 43 in
  for _ = 1 to 10_000 do
    let i = Prng.Stream.categorical s [| 0.0; 1.0; 0.0; 2.0 |] in
    if i = 0 || i = 2 then Alcotest.failf "picked zero-weight category %d" i
  done

let test_shuffle_is_permutation () =
  let s = stream 47 in
  let a = Array.init 20 (fun i -> i) in
  Prng.Stream.shuffle_in_place s a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 20 (fun i -> i))
    sorted

let test_shuffle_uniform_on_three () =
  let s = stream 53 in
  let tbl = Hashtbl.create 6 in
  let n = 60_000 in
  for _ = 1 to n do
    let a = [| 0; 1; 2 |] in
    Prng.Stream.shuffle_in_place s a;
    let key = (a.(0) * 100) + (a.(1) * 10) + a.(2) in
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  done;
  Alcotest.(check int) "six permutations observed" 6 (Hashtbl.length tbl);
  Hashtbl.iter
    (fun key c ->
      let f = float_of_int c /. float_of_int n in
      if Float.abs (f -. (1.0 /. 6.0)) > 0.01 then
        Alcotest.failf "permutation %d: freq %.4f not near 1/6" key f)
    tbl

let test_invalid_arguments () =
  let s = stream 59 in
  Alcotest.check_raises "int 0 rejected" (Invalid_argument "Stream.int: bound must be positive")
    (fun () -> ignore (Prng.Stream.int s 0));
  Alcotest.check_raises "negative substream rejected"
    (Invalid_argument "Stream.substream: negative index") (fun () ->
      ignore (Prng.Stream.substream s (-1)));
  Alcotest.check_raises "empty choose rejected"
    (Invalid_argument "Stream.choose: empty array") (fun () ->
      ignore (Prng.Stream.choose s [||]))

let test_seed_of () =
  let s = stream 61 in
  Alcotest.(check int64) "seed recorded" 61L (Prng.Stream.seed_of s);
  Alcotest.(check int64) "substream keeps family seed" 61L
    (Prng.Stream.seed_of (Prng.Stream.substream s 4))

(* Known answers, cross-checked against the xoshiro256++ reference C
   code of Blackman & Vigna seeded through SplitMix64: the first outputs
   of two seeds, the outputs after one jump, and the first unit floats
   and bounded ints drawn from a fresh stream. A change of state layout
   must leave every replication's draws as they are. *)
let kat_seeds =
  [
    ( 0L,
      [ 0x53175D61490B23DFL; 0x61DA6F3DC380D507L; 0x5C0FDF91EC9A7BFCL;
        0x02EEBF8C3BBE5E1AL ],
      [ 0x2107D23F5380538BL; 0x860C46FBA09246F0L; 0xE824E1AC3BB3B014L ],
      [ 0x1.4c5d7585242c8p-2; 0x1.8769bcf70e034p-2; 0x1.703f7e47b269ep-2 ],
      [ 3; 174; 884115843; 2 ] );
    ( 20030622L,
      [ 0x53AB1551FB5CF1F8L; 0x8982DED20DD538B8L; 0x9FDBC303F316EA87L;
        0x33CEE7040EADE1D9L ],
      [ 0x0149B2946FEC578DL; 0x559B911400BDEBFAL; 0x06F98E21E8AF55EFL ],
      [ 0x1.4eac5547ed73cp-2; 0x1.1305bda41baa7p-1; 0x1.3fb78607e62ddp-1 ],
      [ 6; 0; 256938832; 1 ] );
  ]

let kat_bounds = [ 7; 421; 1_000_000_007; 3 ]

let test_known_answers () =
  List.iter
    (fun (seed, next, jumped, floats, ints) ->
      let name what = Printf.sprintf "seed %Ld: %s" seed what in
      let fresh () = Prng.Stream.create ~seed in
      Alcotest.(check (list int64))
        (name "next") next
        (draws (fresh ()) (List.length next));
      Alcotest.(check (list int64))
        (name "after one jump") jumped
        (draws (Prng.Stream.successor (fresh ())) (List.length jumped));
      Alcotest.(check (list int64))
        (name "substream 1") jumped
        (draws (Prng.Stream.substream (fresh ()) 1) (List.length jumped));
      let s = fresh () in
      Alcotest.(check (list (float 0.0)))
        (name "float") floats
        (List.map (fun _ -> Prng.Stream.float s) floats);
      let s = fresh () in
      Alcotest.(check (list int))
        (name "int") ints
        (List.map (fun n -> Prng.Stream.int s n) kat_bounds))
    kat_seeds

(* Words allocated per call of [f], averaged over many calls. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* The generator keeps its state unboxed: a draw allocates at most the
   boxed float it returns, and a successor only the new stream. Only
   native code unboxes, so bytecode skips the check. *)
let test_draws_do_not_allocate () =
  if Sys.backend_type = Sys.Native then begin
    let s = stream 67 in
    let sink = ref 0.0 in
    let float_words =
      words_per_call 10_000 (fun () -> sink := Prng.Stream.float s)
    in
    let int_words =
      words_per_call 10_000 (fun () ->
          ignore (Sys.opaque_identity (Prng.Stream.int s 421)))
    in
    let succ_words =
      words_per_call 1_000 (fun () ->
          ignore (Sys.opaque_identity (Prng.Stream.successor s)))
    in
    let check what bound words =
      if words > bound then
        Alcotest.failf "%s allocates %.1f words per call (bound %.0f)" what
          words bound
    in
    check "Stream.float" 3.0 float_words;
    check "Stream.int" 1.0 int_words;
    check "Stream.successor" 16.0 succ_words
  end

(* qcheck properties *)

let prop_int_in_range =
  QCheck2.Test.make ~name:"int s n lies in [0, n)" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 10_000))
    (fun (n, seed) ->
      let s = stream seed in
      let x = Prng.Stream.int s n in
      0 <= x && x < n)

let prop_float_range_bounds =
  QCheck2.Test.make ~name:"float_range within bounds" ~count:500
    QCheck2.Gen.(
      triple (float_range (-1e6) 1e6) (float_range 0.0 1e6) (int_range 0 10_000))
    (fun (lo, width, seed) ->
      let s = stream seed in
      let x = Prng.Stream.float_range s lo (lo +. width) in
      lo <= x && (x < lo +. width || width = 0.0))

let prop_choose_member =
  QCheck2.Test.make ~name:"choose returns a member" ~count:300
    QCheck2.Gen.(pair (array_size (int_range 1 50) int) (int_range 0 10_000))
    (fun (a, seed) ->
      let s = stream seed in
      let chosen = Prng.Stream.choose s a in
      Array.exists (fun y -> y = chosen) a)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_int_in_range; prop_float_range_bounds; prop_choose_member ]
  in
  Alcotest.run "prng"
    [
      ( "stream",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "substream 0 identity" `Quick
            test_substream_zero_is_identity;
          Alcotest.test_case "substream/successor agree" `Quick
            test_substream_successor_agree;
          Alcotest.test_case "walk visits substreams" `Quick
            test_walk_visits_substreams;
          Alcotest.test_case "substreams distinct" `Quick
            test_substreams_distinct;
          Alcotest.test_case "substream preserves root" `Quick
            test_substream_does_not_disturb_root;
          Alcotest.test_case "split differs" `Quick
            test_split_differs_from_parent;
          Alcotest.test_case "seed_of" `Quick test_seed_of;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "draws do not allocate" `Quick
            test_draws_do_not_allocate;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "float in [0,1)" `Quick test_float_range_unit;
          Alcotest.test_case "float moments" `Slow test_float_moments;
          Alcotest.test_case "float fits U(0,1) (KS)" `Quick
            test_float_uniform_ks;
          Alcotest.test_case "float_pos in (0,1]" `Quick test_float_pos_positive;
          Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
          Alcotest.test_case "bernoulli frequency" `Slow
            test_bernoulli_frequency;
          Alcotest.test_case "categorical frequencies" `Slow
            test_categorical_frequencies;
          Alcotest.test_case "categorical zero weights" `Quick
            test_categorical_zero_weight_never_chosen;
          Alcotest.test_case "shuffle permutation" `Quick
            test_shuffle_is_permutation;
          Alcotest.test_case "shuffle uniform" `Slow
            test_shuffle_uniform_on_three;
        ] );
      ("properties", qsuite);
    ]
