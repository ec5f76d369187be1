type t =
  { id : int
  ; ty : Types.scalar
  }

let make id ty = { id; ty }
let id r = r.id
let ty r = r.ty
let equal a b = a.id = b.id && Types.equal_scalar a.ty b.ty
(* the types in declaration order, the order the polymorphic compare
   gives constant constructors *)
let ty_rank : Types.scalar -> int = function
  | Types.U16 -> 0
  | Types.U32 -> 1
  | Types.U64 -> 2
  | Types.S16 -> 3
  | Types.S32 -> 4
  | Types.S64 -> 5
  | Types.F32 -> 6
  | Types.F64 -> 7
  | Types.B8 -> 8
  | Types.B16 -> 9
  | Types.B32 -> 10
  | Types.B64 -> 11
  | Types.Pred -> 12

let compare a b =
  let c = Int.compare a.id b.id in
  if c <> 0 then c else Int.compare (ty_rank a.ty) (ty_rank b.ty)
let hash a = Hashtbl.hash (a.id, a.ty)

let prefix r =
  match Types.reg_class r.ty with
  | Types.Cpred -> "%p"
  | Types.C32 -> "%r"
  | Types.C64 -> "%d"

let name r = prefix r ^ string_of_int r.id

(* digit by digit: [string_of_int] goes through the C formatter *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_name b r =
  Buffer.add_string b (prefix r);
  if r.id >= 0 then add_digits b r.id else Buffer.add_string b (string_of_int r.id)

type special =
  | Tid_x
  | Tid_y
  | Ctaid_x
  | Ctaid_y
  | Ntid_x
  | Ntid_y
  | Nctaid_x
  | Nctaid_y
  | Laneid
  | Warpid

let special_to_string = function
  | Tid_x -> "%tid.x"
  | Tid_y -> "%tid.y"
  | Ctaid_x -> "%ctaid.x"
  | Ctaid_y -> "%ctaid.y"
  | Ntid_x -> "%ntid.x"
  | Ntid_y -> "%ntid.y"
  | Nctaid_x -> "%nctaid.x"
  | Nctaid_y -> "%nctaid.y"
  | Laneid -> "%laneid"
  | Warpid -> "%warpid"

let all_specials =
  [ Tid_x; Tid_y; Ctaid_x; Ctaid_y; Ntid_x; Ntid_y; Nctaid_x; Nctaid_y
  ; Laneid; Warpid ]

let special_of_string s =
  List.find_opt (fun x -> special_to_string x = s) all_specials

let equal_special (a : special) (b : special) = a = b

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hsh = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
module Tbl = Hashtbl.Make (Hsh)
