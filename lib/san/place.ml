type t = { name : string; index : int; uid : int }
type fl = { fl_name : string; fl_index : int; fl_uid : int }
type any = P of t | F of fl

let name p = p.name
let fname p = p.fl_name
let index p = p.index
let findex p = p.fl_index
let uid p = p.uid
let fuid p = p.fl_uid

let any_uid = function P p -> p.uid | F p -> p.fl_uid
let any_name = function P p -> p.name | F p -> p.fl_name

let equal a b = a.uid = b.uid
let compare a b = Int.compare a.uid b.uid
let pp ppf p = Format.pp_print_string ppf p.name

let make_int ~name ~index ~uid = { name; index; uid }
let make_float ~name ~index ~uid = { fl_name = name; fl_index = index; fl_uid = uid }
