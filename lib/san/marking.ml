type t = {
  ints : int array;
  floats : float array;
  mutable journal : int list;
  journalled : Bytes.t;  (* one flag per uid to dedupe journal entries *)
  mutable tracing : bool;
  mutable reads : int list;
  read_flags : Bytes.t;
}

let create ~ints ~floats =
  {
    ints = Array.make ints 0;
    floats = Array.make floats 0.0;
    journal = [];
    journalled = Bytes.make (ints + floats) '\000';
    tracing = false;
    reads = [];
    read_flags = Bytes.make (ints + floats) '\000';
  }

let copy m =
  {
    ints = Array.copy m.ints;
    floats = Array.copy m.floats;
    journal = [];
    journalled = Bytes.make (Bytes.length m.journalled) '\000';
    tracing = false;
    reads = [];
    read_flags = Bytes.make (Bytes.length m.read_flags) '\000';
  }

let record_read m uid =
  if Bytes.get m.read_flags uid = '\000' then begin
    Bytes.set m.read_flags uid '\001';
    m.reads <- uid :: m.reads
  end

let trace_reads m f =
  if m.tracing then invalid_arg "Marking.trace_reads: not reentrant";
  m.tracing <- true;
  m.reads <- [];
  let result =
    try f ()
    with e ->
      m.tracing <- false;
      List.iter (fun uid -> Bytes.set m.read_flags uid '\000') m.reads;
      m.reads <- [];
      raise e
  in
  m.tracing <- false;
  let reads = m.reads in
  List.iter (fun uid -> Bytes.set m.read_flags uid '\000') reads;
  m.reads <- [];
  (result, reads)

let record m uid =
  if Bytes.get m.journalled uid = '\000' then begin
    Bytes.set m.journalled uid '\001';
    m.journal <- uid :: m.journal
  end

let get m p =
  if m.tracing then record_read m (Place.uid p);
  m.ints.(Place.index p)

let set m p v =
  if v < 0 then
    invalid_arg
      (Printf.sprintf "Marking.set: place %s would become negative (%d)"
         (Place.name p) v);
  if m.ints.(Place.index p) <> v then begin
    m.ints.(Place.index p) <- v;
    record m (Place.uid p)
  end

let add m p d = set m p (get m p + d)

let fget m p =
  if m.tracing then record_read m (Place.fuid p);
  m.floats.(Place.findex p)

let fset m p v =
  if m.floats.(Place.findex p) <> v then begin
    m.floats.(Place.findex p) <- v;
    record m (Place.fuid p)
  end

let fadd m p d = fset m p (fget m p +. d)

let rec unflag flags = function
  | [] -> ()
  | uid :: rest ->
      Bytes.set flags uid '\000';
      unflag flags rest

let clear_journal m =
  unflag m.journalled m.journal;
  m.journal <- []

(* Element loops rather than [Array.blit]: on an int array in the major
   heap the runtime's blit goes through the write barrier per element. *)
let blit ~src ~dst =
  if
    Array.length src.ints <> Array.length dst.ints
    || Array.length src.floats <> Array.length dst.floats
  then invalid_arg "Marking.blit: markings of different shapes";
  let si = src.ints and di = dst.ints in
  for i = 0 to Array.length si - 1 do
    di.(i) <- si.(i)
  done;
  let sf = src.floats and df = dst.floats in
  for i = 0 to Array.length sf - 1 do
    df.(i) <- sf.(i)
  done;
  clear_journal dst

let journal m = m.journal

let int_snapshot m = Array.copy m.ints
let float_snapshot m = Array.copy m.floats

let equal a b = a.ints = b.ints && a.floats = b.floats

let hash m = Hashtbl.hash (m.ints, m.floats)
