open Relalg

(* Word [i] of a bitset holds ids [i * width] to [i * width + width - 1].
   The loops below read a word past an array's end as 0, so a scratch
   view padded with zero words reads as the set it holds. *)
module Bits = struct
  type t = int array

  let width = Sys.int_size
  let empty = [||]
  let word a i = if i < Array.length a then Array.unsafe_get a i else 0

  (* The number of words up to the last non-zero one. *)
  let rec used a n =
    if n > 0 && Array.unsafe_get a (n - 1) = 0 then used a (n - 1) else n

  let of_list ids =
    let top = List.fold_left (fun m id -> if id > m then id else m) (-1) ids in
    let a = Array.make ((top / width) + 1) 0 in
    List.iter
      (fun id ->
        if id < 0 then invalid_arg "Intern.Bits.of_list: negative id";
        a.(id / width) <- a.(id / width) lor (1 lsl (id mod width)))
      ids;
    if top < 0 then empty else a

  let iter f a =
    for i = 0 to Array.length a - 1 do
      let w = a.(i) in
      if w <> 0 then
        for b = 0 to width - 1 do
          if (w lsr b) land 1 = 1 then f ((i * width) + b)
        done
    done

  let elements a =
    let acc = ref [] in
    iter (fun id -> acc := id :: !acc) a;
    List.rev !acc

  let union a b =
    let n = used a (Array.length a) and m = used b (Array.length b) in
    Array.init (if n > m then n else m) (fun i -> word a i lor word b i)

  (* The loops of the chase's pair test are top-level functions of all
     their operands: a local closure over them would allocate. *)
  let rec subset_below a b i =
    i < 0
    || Array.unsafe_get a i land lnot (word b i) = 0
       && subset_below a b (i - 1)

  let subset a b = subset_below a b (Array.length a - 1)
  let rec equal_below a b i =
    i < 0 || (word a i = word b i && equal_below a b (i - 1))

  let equal a b =
    let n = Array.length a and m = Array.length b in
    equal_below a b ((if n > m then n else m) - 1)

  (* Each word is mixed in by a multiply and a shift, so the low bits
     a hash table indexes on depend on every bit of the set. *)
  let rec hash_from a h i n =
    if i = n then h
    else
      let x = (h lxor Array.unsafe_get a i) * 0x2545F4914F6CDD1D in
      hash_from a (x lxor (x lsr 29)) (i + 1) n

  let hash a = hash_from a 0 0 (used a (Array.length a)) land max_int

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  type scratch = { mutable words : int array }

  let scratch () = { words = Array.make 4 0 }

  (* Make room for [n] words, keeping the contents. *)
  let reserve s n =
    let cap = Array.length s.words in
    if n > cap then begin
      let words = Array.make (if n > 2 * cap then n else 2 * cap) 0 in
      Array.blit s.words 0 words 0 cap;
      s.words <- words
    end

  let union_into s a b =
    let n = Array.length a and m = Array.length b in
    reserve s (if n > m then n else m);
    let w = s.words in
    for i = 0 to Array.length w - 1 do
      Array.unsafe_set w i (word a i lor word b i)
    done

  let add_into s id =
    reserve s ((id / width) + 1);
    let i = id / width in
    s.words.(i) <- s.words.(i) lor (1 lsl (id mod width))

  let view s = s.words
end

(* One interner: [find] looks a key up, [add] records its id; ids
   count up from 0. *)
let intern find add tbl count key =
  match find tbl key with
  | Some id -> id
  | None ->
    let id = !count in
    incr count;
    add tbl key id;
    id

module Attr_tbl = Hashtbl.Make (struct
  type t = Attribute.t

  let equal = Attribute.equal
  let hash = Hashtbl.hash
end)

let attr_tbl : int Attr_tbl.t = Attr_tbl.create 256
let attr_count = ref 0
let attr_id a = intern Attr_tbl.find_opt Attr_tbl.add attr_tbl attr_count a

(* The default polymorphic hash ([Hashtbl.hash]) samples only 10
   meaningful nodes, so multi-pair conditions sharing their first pairs
   would collide; hash deep enough to cover any realistic condition. *)
module Cond_tbl = Hashtbl.Make (struct
  type t = (Attribute.t * Attribute.t) list

  let equal = ( = )
  let hash x = Hashtbl.hash_param 500 1000 x
end)

let cond_tbl : int Cond_tbl.t = Cond_tbl.create 64
let cond_count = ref 0

let cond_id c =
  intern Cond_tbl.find_opt Cond_tbl.add cond_tbl cond_count
    (Joinpath.Cond.pairs c)

let attrs_bits set =
  Bits.of_list (Attribute.Set.fold (fun a ids -> attr_id a :: ids) set [])

let path_bits p = Bits.of_list (List.map cond_id (Joinpath.conditions p))

let attrs_tbl : int Bits.Tbl.t = Bits.Tbl.create 256
let attrs_count = ref 0

let attrs_id_of_bits b =
  intern Bits.Tbl.find_opt Bits.Tbl.add attrs_tbl attrs_count b

let attrs_id set = attrs_id_of_bits (attrs_bits set)
let path_tbl : int Bits.Tbl.t = Bits.Tbl.create 256
let path_count = ref 0

let path_id_of_bits b =
  intern Bits.Tbl.find_opt Bits.Tbl.add path_tbl path_count b

let path_id p = path_id_of_bits (path_bits p)

let find_path_bits b =
  match Bits.Tbl.find path_tbl b with id -> id | exception Not_found -> -1

let find_path p =
  match
    List.map (fun c -> Cond_tbl.find cond_tbl (Joinpath.Cond.pairs c))
      (Joinpath.conditions p)
  with
  | ids -> Bits.Tbl.find_opt path_tbl (Bits.of_list ids)
  | exception Not_found -> None

(* Keys here are (server, small int, small int) — the default hash
   covers them fully. *)
let rule_tbl : (Server.t * int * int, int) Hashtbl.t = Hashtbl.create 256
let rule_count = ref 0

let rule_id_of server ~attrs_id ~path_id =
  intern Hashtbl.find_opt Hashtbl.add rule_tbl rule_count
    (server, attrs_id, path_id)

let profile_tbl : (int * int * int, int) Hashtbl.t = Hashtbl.create 256
let profile_count = ref 0

let profile_id_of ~pi_id ~path_id ~sigma_id =
  intern Hashtbl.find_opt Hashtbl.add profile_tbl profile_count
    (pi_id, path_id, sigma_id)
