type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

let type_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | String _ -> 4

(* Exact numeric comparison of an [Int] with a [Float]. Rounding [x]
   through [float_of_int] loses precision above 2^53, making distinct
   values compare equal (e.g. 9007199254740993 vs 9007199254740992.0),
   which breaks Tuple.merge conflict detection and set dedup — so we
   never compare through a rounded conversion. Every float with
   |y| >= 2^52 is an integer, so a finite non-integer float is exactly
   representable and any int of magnitude >= 2^52 dominates it; integer
   floats within the int range are compared as ints. *)
let two_52 = 4_503_599_627_370_496 (* 2^52 *)

(* [max_int] (2^62 - 1 on 64-bit) is not a float, so its conversion
   rounds UP to 2^62: any float >= [max_int_f] strictly exceeds every
   int. [min_int] (-2^62) is exact. Together they gate [Float.to_int]
   to the range where it is defined. *)
let max_int_f = float_of_int max_int
let min_int_f = float_of_int min_int

let compare_int_float x y =
  if Float.is_nan y then 1 (* totality: nan below every Int, as below every Float *)
  else if y = Float.infinity then -1
  else if y = Float.neg_infinity then 1
  else if Float.is_integer y then
    if y >= max_int_f then -1 (* beyond max_int *)
    else if y < min_int_f then 1 (* below min_int *)
    else Int.compare x (Float.to_int y)
  else if x >= two_52 then 1 (* non-integer y has |y| < 2^52 *)
  else if x <= -two_52 then -1
  else Float.compare (float_of_int x) y

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | String x, String y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | String _), _ ->
    Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

(* [Int x] can only be [equal] to a [Float] when x is exactly
   representable as a float, so hashing representable ints through
   their float image and the rest through the int keeps [hash]
   compatible with the exact [equal]. *)
let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int i ->
    let f = float_of_int i in
    if f >= min_int_f && f < max_int_f && Float.to_int f = i then
      Hashtbl.hash f
    else Hashtbl.hash i
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s

(* [Int i] is [equal] to [Float f] exactly when [f] is integral, inside
   the int range and [Float.to_int f = i], so such a float hashes as
   that int; every other float has no [Int] twin. *)
let key_hash = function
  | Int i -> i
  | Float f ->
    if Float.is_integer f && f >= min_int_f && f < max_int_f then
      Float.to_int f
    else Hashtbl.hash f
  | (Null | Bool _ | String _) as v -> Hashtbl.hash v

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"

let byte_width = function
  | Null | Bool _ -> 1
  | Int _ | Float _ -> 8
  | String s -> String.length s

let of_literal s =
  let s = String.trim s in
  let is_quoted =
    String.length s >= 2 && s.[0] = '\'' && s.[String.length s - 1] = '\''
  in
  if String.uppercase_ascii s = "NULL" then Null
  else if s = "true" then Bool true
  else if s = "false" then Bool false
  else if is_quoted then String (String.sub s 1 (String.length s - 2))
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None ->
      (match float_of_string_opt s with
       | Some f -> Float f
       | None -> String s)

let pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
  | String s -> Fmt.pf ppf "'%s'" s

let to_string = Fmt.to_to_string pp
