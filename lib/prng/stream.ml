type t = { gen : Xoshiro256.t; seed : int64 }

let create ~seed = { gen = Xoshiro256.of_seed seed; seed }

let substream root i =
  if i < 0 then invalid_arg "Stream.substream: negative index";
  let gen = Xoshiro256.copy root.gen in
  for _ = 1 to i do
    Xoshiro256.jump gen
  done;
  { gen; seed = root.seed }

let successor s =
  let gen = Xoshiro256.copy s.gen in
  Xoshiro256.jump gen;
  { gen; seed = s.seed }

let walk s n f =
  let cur = ref (substream s 0) in
  for i = 0 to n - 1 do
    (* Taken before [f] draws from the stream. *)
    let next = successor !cur in
    f i !cur;
    cur := next
  done;
  !cur

let bits64 s = Xoshiro256.next s.gen

let split s =
  let derived = Splitmix64.mix (bits64 s) in
  { gen = Xoshiro256.of_seed derived; seed = s.seed }

(* Top 53 bits of a draw, scaled by 2^-53: uniform on [0,1). *)
let float s = float_of_int (Xoshiro256.next_top s.gen 53) *. 0x1p-53

let float_pos s = 1.0 -. float s

let float_range s lo hi =
  if not (lo <= hi) then invalid_arg "Stream.float_range: lo > hi";
  lo +. ((hi -. lo) *. float s)

(* Rejection on the top 62 bits to avoid modulo bias: draws at or above
   the largest multiple of n below 2^62 are redrawn, keeping the result
   exactly uniform. A 62-bit draw fits an OCaml [int] (2^62 - 1 is
   [max_int]), so nothing is boxed. *)
let int s n =
  if n <= 0 then invalid_arg "Stream.int: bound must be positive";
  let limit = max_int - (max_int mod n) in
  let v = ref (Xoshiro256.next_top s.gen 62) in
  while !v >= limit do
    v := Xoshiro256.next_top s.gen 62
  done;
  !v mod n

let bool s = Int64.logand (bits64 s) 1L = 1L

let bernoulli s p =
  if not (0.0 <= p && p <= 1.0) then
    invalid_arg "Stream.bernoulli: probability out of range";
  float s < p

let categorical s w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if not (total > 0.0) then
    invalid_arg "Stream.categorical: weights must have positive sum";
  let u = float s *. total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if u < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let choose s a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stream.choose: empty array";
  a.(int s n)

let choose_list s l =
  match l with
  | [] -> invalid_arg "Stream.choose_list: empty list"
  | _ -> List.nth l (int s (List.length l))

let shuffle_in_place s a =
  for i = Array.length a - 1 downto 1 do
    let j = int s (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let seed_of s = s.seed
