open Relalg

let is_key schema a = List.exists (Attribute.equal a) (Schema.key schema)

(* Link attributes are named Ri_to_Rj by System_gen. *)
let is_link a =
  let name = Attribute.name a in
  let n = String.length name in
  let rec at i = i + 4 <= n && (String.sub name i 4 = "_to_" || at (i + 1)) in
  at 0

let instance rng ~rows ?(domain_scale = 1.0) ?(null_share = 0.0) schema =
  let domain =
    max 1 (int_of_float (float_of_int rows *. domain_scale))
  in
  (* The NULL draw comes after the value's, and only with a positive
     share: without one the stream is the one it always was. *)
  let nullable v =
    if null_share > 0.0 && Rng.float rng < null_share then Value.Null else v
  in
  let row i =
    List.map
      (fun a ->
        nullable
          (if is_key schema a then Value.Int i
           else if is_link a then Value.Int (Rng.int rng domain)
           else Value.Int (Rng.int rng 1000)))
      (Schema.attributes schema)
  in
  Relation.of_rows schema (List.init rows row)

let instances rng ~rows ?domain_scale ?null_share (sys : System_gen.t) =
  let table =
    List.map
      (fun schema ->
        ( Schema.name schema,
          instance rng ~rows ?domain_scale ?null_share schema ))
      (Catalog.schemas sys.catalog)
  in
  fun name -> List.assoc_opt name table
