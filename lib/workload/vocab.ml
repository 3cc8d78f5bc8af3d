type t = {
  rng : Rng.t;
  words : string array;
  (* cumulative Zipf mass, for binary-search sampling *)
  cumulative : float array;
}

let syllables =
  [| "ba"; "re"; "mo"; "ta"; "li"; "ku"; "so"; "ne"; "vi"; "da"; "po"; "ze" |]

let mint_word rng =
  let n = 2 + Rng.int rng 3 in
  String.concat "" (List.init n (fun _ -> Rng.pick rng syllables))

let create ?(size = 2000) ?(exponent = 1.1) rng =
  if size <= 0 then invalid_arg "Vocab.create: size must be positive";
  let seen = Hashtbl.create size in
  let words =
    Array.init size (fun i ->
        let rec fresh () =
          let w = mint_word rng ^ string_of_int i in
          if Hashtbl.mem seen w then fresh ()
          else begin
            Hashtbl.replace seen w ();
            w
          end
        in
        fresh ())
  in
  let cumulative = Array.make size 0.0 in
  let total = ref 0.0 in
  for i = 0 to size - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) exponent);
    cumulative.(i) <- !total
  done;
  for i = 0 to size - 1 do
    cumulative.(i) <- cumulative.(i) /. !total
  done;
  { rng; words; cumulative }

let word t =
  let u = Rng.float t.rng in
  (* first index with cumulative >= u *)
  let lo = ref 0 and hi = ref (Array.length t.cumulative - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cumulative.(mid) >= u then hi := mid else lo := mid + 1
  done;
  t.words.(!lo)

let words t n = String.concat " " (List.init n (fun _ -> word t))
let size t = Array.length t.words

let restaurant_names =
  [|
    "Napoli"; "Akropolis"; "Golden-Dragon"; "Chez-Marcel"; "La-Pergola";
    "Sakura"; "El-Toro"; "Taj-Mahal"; "Brasserie-Lipp"; "Trattoria-Roma";
    "Blue-Lagoon"; "The-Old-Mill"; "Casa-Bonita"; "Petit-Jardin"; "Meze-House";
    "Pho-Saigon"; "Alpenhof"; "Smoky-Joes"; "Mar-Azul"; "Kebabistan";
  |]

let street_names =
  [|
    "Via-Roma"; "Rue-de-Rivoli"; "Main-Street"; "Kongensgate"; "Elm-Avenue";
    "Marktplatz"; "Harbor-Road"; "Station-Square"; "Oak-Lane"; "River-Walk";
  |]

let cuisines =
  [|
    "italian"; "greek"; "chinese"; "french"; "japanese"; "spanish"; "indian";
    "vietnamese"; "norwegian"; "mexican";
  |]

let cities =
  [| "Trondheim"; "Paris"; "Roma"; "Oslo"; "Athens"; "Madrid"; "Lyon" |]
