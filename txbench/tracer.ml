(* Spans recorded by the benchmark around its own calls into each layer.

   Only the main domain records, so the state is plain refs.  Disabled, a
   span is one ref read.  Spans stay in memory until [write_jsonl]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request id shared by the spans of one operation *)
  name : string;
  start_ns : int;
  stop_ns : int;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []
let current_req = ref 0

let set_request r = current_req := r

let with_span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      stack := List.tl !stack;
      recorded :=
        { id; parent; req = !current_req; name; start_ns; stop_ns } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () = List.rev !recorded

(* Self time: the span's duration minus the part of it its children cover
   (children are clipped to the parent and their overlaps merged). *)
let self_times () =
  let all = spans () in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    all;
  let covered s =
    let kids =
      Hashtbl.find_all children s.id
      |> List.map (fun c -> (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let total, last =
      List.fold_left
        (fun (acc, cur) (a, b) ->
          match cur with
          | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
          | Some (ca, cb) -> (acc + (cb - ca), Some (a, b))
          | None -> (acc, Some (a, b)))
        (0, None) kids
    in
    match last with Some (a, b) -> total + (b - a) | None -> total
  in
  List.map (fun s -> (s, s.stop_ns - s.start_ns - covered s)) all

(* Self times in microseconds, grouped by span name. *)
let self_us_by_name () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self_ns) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (float_of_int self_ns /. 1e3 :: prev))
    (self_times ());
  fun name -> Option.value ~default:[] (Hashtbl.find_opt tbl name)

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.parent s.req s.name s.start_ns s.stop_ns)
    (spans ());
  close_out oc
