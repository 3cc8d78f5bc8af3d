(* Sample statistics, provenance readings and the result line. *)

(* Nearest-rank percentile of an unsorted sample; [p] in (0, 1]. *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5
let median_list l = median (Array.of_list l)

let minimum l = List.fold_left Float.min infinity l
let sum_list = List.fold_left ( +. ) 0.0
let mean_list l = sum_list l /. float_of_int (List.length l)

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* A fixed CPU loop, median of three: host drift shows as a change in its
   time. *)
let calibration_ms () =
  let once () =
    let t0 = Tracer.now_ns () in
    let x = ref 0 in
    for i = 1 to 20_000_000 do
      x := (!x lxor i) * 31 land 0xffffff
    done;
    ignore (Sys.opaque_identity !x);
    float_of_int (Tracer.now_ns () - t0) /. 1e6
  in
  median [| once (); once (); once () |]

(* A fixed allocating loop: builds and folds a 100k-entry map.  Unlike
   [calibration_ms], a chain of dependent arithmetic, it slows down with
   the host as the program does (see "Steadiness" in README.md). *)
module Imap = Map.Make (Int)

let alloc_loop_ms () =
  let t0 = Tracer.now_ns () in
  let m = ref Imap.empty in
  for i = 1 to 100_000 do
    m := Imap.add ((i * 7919) land 0xfffff) (string_of_int i) !m
  done;
  ignore (Sys.opaque_identity (Imap.fold (fun _ v n -> n + String.length v) !m 0));
  float_of_int (Tracer.now_ns () - t0) /. 1e6

type metric = { name : string; value : float; unit_ : string; samples : int }

let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj kvs =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) kvs) ^ "}"

let print_metric m =
  Printf.printf "  %-34s %14.6f %-6s (n=%d)\n" m.name m.value m.unit_ m.samples

let result_line ~correct ~attempted ~failed metrics =
  json_obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_obj
          (List.map
             (fun m ->
               (m.name, json_obj [("value", json_float m.value); ("unit", json_string m.unit_)]))
             metrics) );
    ]
