type t = (int * int) list

let empty = []
let whole = [(0, max_int)]
let singleton a b = if b <= a then [] else [(a, b)]

let of_list ranges =
  let sorted =
    List.sort compare (List.filter (fun (a, b) -> a < b) ranges)
  in
  let rec merge acc = function
    | [] -> List.rev acc
    | (a, b) :: rest -> (
      match acc with
      | (pa, pb) :: acc' when a <= pb -> merge ((pa, Stdlib.max pb b) :: acc') rest
      | _ -> merge ((a, b) :: acc) rest)
  in
  merge [] sorted

let is_empty t = t = []
let mem v t = List.exists (fun (a, b) -> a <= v && v < b) t
let union a b = of_list (a @ b)
let coalesce ts = of_list (List.concat ts)

let inter a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | (a1, a2) :: ra, (b1, b2) :: rb ->
      let lo = Stdlib.max a1 b1 and hi = Stdlib.min a2 b2 in
      let acc = if lo < hi then (lo, hi) :: acc else acc in
      if a2 < b2 then go ra b acc else go a rb acc
  in
  go a b []

(* [a] minus [b].  A pure merge walk on the sorted range lists; no endpoint
   arithmetic, so open-ended ranges ([b = max_int]) pass through without the
   overflow a [b + 1] encoding would risk. *)
let diff a b =
  let rec go a b acc =
    match (a, b) with
    | [], _ -> List.rev acc
    | rest, [] -> List.rev_append acc rest
    | (a1, a2) :: ra, (b1, b2) :: rb ->
      if b2 <= a1 then go a rb acc (* b entirely before a *)
      else if a2 <= b1 then go ra b ((a1, a2) :: acc) (* a entirely before b *)
      else begin
        (* overlap: keep the part of a left of b, then the remainder *)
        let acc = if a1 < b1 then (a1, b1) :: acc else acc in
        if a2 <= b2 then go ra b acc else go ((b2, a2) :: ra) rb acc
      end
  in
  go a b []

let split_points ts =
  List.sort_uniq compare
    (List.concat_map (List.concat_map (fun (a, b) -> [ a; b ])) ts)

let to_list t = t

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat ", "
       (List.map
          (fun (a, b) ->
            if b = max_int then Printf.sprintf "[%d,∞)" a
            else Printf.sprintf "[%d,%d)" a b)
          t))
