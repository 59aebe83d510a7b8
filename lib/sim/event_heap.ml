type t = {
  slots : int array;  (* heap slot -> activity id; [0 .. size - 1] live *)
  pos : int array;  (* activity id -> heap slot, or -1 when absent *)
  time : float array;  (* activity id -> completion time *)
  seq : int array;  (* activity id -> insertion sequence number *)
  mutable size : int;
  mutable next_seq : int;
}

let create n =
  {
    slots = Array.make n 0;
    pos = Array.make n (-1);
    time = Array.make n 0.0;
    seq = Array.make n 0;
    size = 0;
    next_seq = 0;
  }

(* Strict (time, seq) order; seq numbers are unique, so it is total. *)
let before h a b =
  let ta = h.time.(a) and tb = h.time.(b) in
  ta < tb || (ta = tb && h.seq.(a) < h.seq.(b))

let place h i act =
  h.slots.(i) <- act;
  h.pos.(act) <- i

(* Move [act], whose slot [i] is a hole, up to its place. *)
let rec sift_up h i act =
  if i = 0 then place h 0 act
  else begin
    let parent = (i - 1) / 2 in
    let p = h.slots.(parent) in
    if before h act p then begin
      place h i p;
      sift_up h parent act
    end
    else place h i act
  end

(* Move [act], whose slot [i] is a hole, down to its place. *)
let rec sift_down h i act =
  let l = (2 * i) + 1 in
  if l >= h.size then place h i act
  else begin
    let r = l + 1 in
    let c = if r < h.size && before h h.slots.(r) h.slots.(l) then r else l in
    let child = h.slots.(c) in
    if before h child act then begin
      place h i child;
      sift_down h c act
    end
    else place h i act
  end

(* Put [act] into hole [i], in whichever direction its key requires. *)
let settle h i act =
  if i > 0 && before h act h.slots.((i - 1) / 2) then sift_up h i act
  else sift_down h i act

let mem h act = h.pos.(act) >= 0
let time h act = h.time.(act)
let size h = h.size

let push h ~act ~time =
  if not (Float.is_finite time) || time < 0.0 then
    invalid_arg (Printf.sprintf "Event_heap.push: bad time %g" time);
  h.time.(act) <- time;
  h.seq.(act) <- h.next_seq;
  h.next_seq <- h.next_seq + 1;
  let i = h.pos.(act) in
  if i >= 0 then settle h i act
  else begin
    h.size <- h.size + 1;
    sift_up h (h.size - 1) act
  end

(* Fill the hole at slot [i] with the last entry. *)
let close_hole h i =
  h.size <- h.size - 1;
  if i < h.size then settle h i h.slots.(h.size)

let remove h act =
  let i = h.pos.(act) in
  if i >= 0 then begin
    h.pos.(act) <- -1;
    close_hole h i
  end

let pop h =
  if h.size = 0 then -1
  else begin
    let top = h.slots.(0) in
    h.pos.(top) <- -1;
    close_hole h 0;
    top
  end

let copy h =
  {
    slots = Array.copy h.slots;
    pos = Array.copy h.pos;
    time = Array.copy h.time;
    seq = Array.copy h.seq;
    size = h.size;
    next_seq = h.next_seq;
  }

let clear h =
  for i = 0 to h.size - 1 do
    h.pos.(h.slots.(i)) <- -1
  done;
  h.size <- 0;
  h.next_seq <- 0

let blit ~src ~dst =
  if Array.length src.pos <> Array.length dst.pos then
    invalid_arg "Event_heap.blit: heaps of different capacities";
  clear dst;
  for i = 0 to src.size - 1 do
    let act = src.slots.(i) in
    dst.slots.(i) <- act;
    dst.pos.(act) <- i;
    dst.time.(act) <- src.time.(act);
    dst.seq.(act) <- src.seq.(act)
  done;
  dst.size <- src.size;
  dst.next_seq <- src.next_seq
