(* Replications spread over OCaml domains: the one block partition and
   the one fan-out behind Runner and Splitting. *)

(* Contiguous near-equal blocks [(first, count)] covering
   [first, first + count): at most [domains] of them, and at least one. *)
let blocks ~domains ~first ~count =
  let d = Int.max 1 (Int.min domains count) in
  let base = count / d and extra = count mod d in
  List.init d (fun i ->
      let c = base + if i < extra then 1 else 0 in
      (first + (i * base) + Int.min i extra, c))

(* [run f blocks] is [f tid block] for every block, in block order: inline
   for a single block, otherwise each block on its own domain. *)
let run f = function
  | [ b ] -> [ f 0 b ]
  | bs ->
      List.map Domain.join
        (List.mapi (fun tid b -> Domain.spawn (fun () -> f tid b)) bs)
