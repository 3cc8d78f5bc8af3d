(* Page layout (page_size bytes):

     0 ..  3   magic "TXJP"
     4 .. 19   MD5 digest of bytes [20, page_size)
    20 .. 23   record sequence number (int32 be)
    24 .. 27   page index within the record (int32 be)
    28 .. 31   page count of the record (int32 be)
    32 .. 35   payload bytes used in this page (int32 be)
    36 ..      payload

   A blob page cannot masquerade as a journal page: it would need both the
   magic and a correct MD5 of its own body. *)

let magic = "TXJP"
let header_bytes = 36
let digest_off = 4
let body_off = 20
let payload_capacity = Disk.page_size - header_bytes

type t = {
  pool : Buffer_pool.t;
  (* Guards every mutable field.  Concurrent committers append and sync
     from different domains under group commit. *)
  m : Mutex.t;
  cond : Condition.t;  (* group-commit barrier: synced advanced *)
  mutable next_seq : int;
  (* The page ids of every committed record (recovered, then appended), by
     record index — the journal's only directory, and what [read] follows.
     Record i carries append ticket i + 1. *)
  mutable records : int array Vec.t;
  mutable pages : int;
  (* Encoded pages of appended-but-not-yet-synced records, oldest first.
     Page ids are allocated at append time (allocation writes nothing),
     the page images land on disk at the next [sync] — strictly in append
     order, which is what makes a torn batch recover to a record
     prefix. *)
  mutable pending : (int * bytes) list;  (* newest first *)
  mutable synced : int;  (* highest ticket known durable *)
  mutable leader : bool;  (* a group-commit leader is collecting a batch *)
  mutable dead : bool;  (* a flush crashed: buffered tickets can never sync *)
}

let make pool ~next_seq ~records ~pages =
  {
    pool;
    m = Mutex.create ();
    cond = Condition.create ();
    next_seq;
    records;
    pages;
    pending = [];
    synced = Vec.length records;
    leader = false;
    dead = false;
  }

let create pool = make pool ~next_seq:0 ~records:(Vec.create ()) ~pages:0

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let record_count t = locked t @@ fun () -> Vec.length t.records
let page_count t = locked t @@ fun () -> t.pages
let synced_count t = locked t @@ fun () -> t.synced

let get_i32 page off = Int32.to_int (Bytes.get_int32_be page off)

let encode_page ~seq ~index ~count chunk =
  let page = Bytes.make Disk.page_size '\000' in
  Bytes.blit_string magic 0 page 0 4;
  Bytes.set_int32_be page 20 (Int32.of_int seq);
  Bytes.set_int32_be page 24 (Int32.of_int index);
  Bytes.set_int32_be page 28 (Int32.of_int count);
  Bytes.set_int32_be page 32 (Int32.of_int (String.length chunk));
  Bytes.blit_string chunk 0 page header_bytes (String.length chunk);
  let digest =
    Digest.subbytes page body_off (Disk.page_size - body_off)
  in
  Bytes.blit_string digest 0 page digest_off 16;
  page

(* [None] when the page is not a (whole, untorn) journal page. *)
let decode_page page =
  if Bytes.length page <> Disk.page_size then None
  else if not (String.equal (Bytes.sub_string page 0 4) magic) then None
  else
    let stored = Bytes.sub_string page digest_off 16 in
    let actual = Digest.subbytes page body_off (Disk.page_size - body_off) in
    if not (String.equal stored actual) then None
    else
      let seq = get_i32 page 20 in
      let index = get_i32 page 24 in
      let count = get_i32 page 28 in
      let len = get_i32 page 32 in
      if seq < 0 || count < 1 || index < 0 || index >= count
         || len < 0 || len > payload_capacity
      then None
      else Some (seq, index, count, Bytes.sub_string page header_bytes len)

(* caller holds t.m *)
let append_locked t payload =
  let len = String.length payload in
  if len = 0 then invalid_arg "Journal.append: empty record";
  let count = (len + payload_capacity - 1) / payload_capacity in
  (* The sequence number is consumed up front: should the append crash
     part-way, recovery burns it and the torn record can never complete. *)
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let ids =
    Array.init count (fun index ->
        let off = index * payload_capacity in
        let chunk = String.sub payload off (Stdlib.min payload_capacity (len - off)) in
        let id = Buffer_pool.alloc t.pool in
        t.pending <- (id, encode_page ~seq ~index ~count chunk) :: t.pending;
        id)
  in
  t.pages <- t.pages + count;
  Vec.push t.records ids;
  Vec.length t.records

(* caller holds t.m.  Writes the batch strictly in append order: a torn
   write leaves every earlier record complete on disk and every later one
   entirely absent — all-or-prefix at record granularity.  One flushed
   batch is one durability point ("fsync"), however many records it
   carries.  On [Disk.Crash] the unwritten tail is dropped: the simulated
   machine is gone, only [recover] runs next. *)
let flush_locked t =
  match t.pending with
  | [] -> ()
  | pending ->
    t.pending <- [];
    let target = Vec.length t.records in
    (try
       List.iter
         (fun (id, page) -> Buffer_pool.write t.pool id page)
         (List.rev pending)
     with e ->
       t.dead <- true;
       raise e);
    let stats = Buffer_pool.stats t.pool in
    stats.Io_stats.fsyncs <- stats.Io_stats.fsyncs + 1;
    t.synced <- target

let append_buffered t payload = locked t @@ fun () -> append_locked t payload

let sync t = locked t @@ fun () -> flush_locked t

let append t payload =
  locked t @@ fun () ->
  ignore (append_locked t payload : int);
  flush_locked t

let group_sync t ~sleep ticket =
  Mutex.lock t.m;
  let rec loop () =
    if t.synced >= ticket then ()
    else if t.dead then raise Disk.Crash
    else if t.leader then begin
      (* a leader is collecting: ride its batch *)
      Condition.wait t.cond t.m;
      loop ()
    end
    else begin
      t.leader <- true;
      Mutex.unlock t.m;
      (* Window for other committers to append into the batch.  The lock
         is free while we sleep, so they buffer concurrently. *)
      (try sleep ()
       with e ->
         (* Hand leadership off, but leave the mutex held: re-raising
            unwinds into the outer [Fun.protect], whose finally performs
            the single unlock. *)
         Mutex.lock t.m;
         t.leader <- false;
         Condition.broadcast t.cond;
         raise e);
      Mutex.lock t.m;
      Fun.protect
        ~finally:(fun () ->
          t.leader <- false;
          Condition.broadcast t.cond)
        (fun () -> flush_locked t);
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) loop

let read t i =
  let ids =
    locked t @@ fun () ->
    if i < 0 || i >= t.synced then
      invalid_arg (Printf.sprintf "Journal.read: record %d is not durable" i);
    Vec.get t.records i
  in
  let count = Array.length ids in
  String.concat ""
    (List.mapi
       (fun index id ->
         match decode_page (Buffer_pool.read t.pool id) with
         | Some (_, index', count', chunk) when index' = index && count' = count ->
           chunk
         | Some _ | None ->
           failwith
             (Printf.sprintf "Journal.read: page %d of record %d fails its check"
                index i))
       (Array.to_list ids))

(* Overwrites with a page that carries no magic, so no later scan can take
   it for a journal page.  A crash part-way leaves each dropped record
   whole or incomplete: recovery drops the incomplete ones, and the whole
   ones are still the tail the caller is dropping. *)
let truncate t k =
  locked t @@ fun () ->
  let n = Vec.length t.records in
  if k < 0 || k > n then
    invalid_arg (Printf.sprintf "Journal.truncate: %d of %d records" k n);
  if t.pending <> [] then invalid_arg "Journal.truncate: records are buffered";
  let released =
    List.concat_map
      (fun i -> Array.to_list (Vec.get t.records i))
      (List.init (n - k) (fun i -> k + i))
  in
  if released <> [] then begin
    let blank = Bytes.make Disk.page_size '\000' in
    List.iter (fun id -> Buffer_pool.write t.pool id blank) released;
    let stats = Buffer_pool.stats t.pool in
    stats.Io_stats.fsyncs <- stats.Io_stats.fsyncs + 1;
    let kept = Vec.create () in
    for i = 0 to k - 1 do
      Vec.push kept (Vec.get t.records i)
    done;
    t.records <- kept;
    t.pages <- t.pages - List.length released;
    t.synced <- k
  end;
  released

type recovery = {
  journal : t;
  records : string list;
  journal_pages : int list;
}

(* One scan of every page.  Pages land on disk strictly in append order, so
   every complete record is committed: an incomplete record with a complete
   one beyond it is a burned sequence number, and one with nothing complete
   beyond it is the torn tail.  Either way it is not a record.  The
   sequence numbers of incomplete records are burned: appends continue
   past the highest number on disk, so their surviving pages can never be
   confused with later appends. *)
let recover pool =
  let by_seq : (int, int * string array * int array) Hashtbl.t =
    Hashtbl.create 64
  in
  let page_ids = ref [] in
  let max_seq = ref (-1) in
  for id = 0 to Buffer_pool.page_count pool - 1 do
    match decode_page (Buffer_pool.read pool id) with
    | None -> ()
    | Some (seq, index, count, chunk) ->
      page_ids := id :: !page_ids;
      if seq > !max_seq then max_seq := seq;
      (match Hashtbl.find_opt by_seq seq with
       | Some (c, chunks, ids) when c = count ->
         chunks.(index) <- chunk;
         ids.(index) <- id
       | Some (_, chunks, ids) ->
         (* A digest-valid page disagreeing on the record's shape cannot
            arise from this writer; treat the record as unreadable. *)
         Hashtbl.replace by_seq seq (-1, chunks, ids)
       | None ->
         let chunks = Array.make count "" and ids = Array.make count (-1) in
         chunks.(index) <- chunk;
         ids.(index) <- id;
         Hashtbl.replace by_seq seq (count, chunks, ids))
  done;
  (* Every chunk of a committed record is non-empty: a record is non-empty
     and only its last page can hold less than a full page. *)
  let complete =
    Hashtbl.fold
      (fun seq (c, chunks, ids) acc ->
        if c > 0 && Array.for_all (fun s -> s <> "") chunks then
          (seq, chunks, ids) :: acc
        else acc)
      by_seq []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  let records = Vec.create () in
  List.iter (fun (_, _, ids) -> Vec.push records ids) complete;
  let journal =
    make pool ~next_seq:(!max_seq + 1) ~records
      ~pages:(List.length !page_ids)
  in
  {
    journal;
    records =
      List.map (fun (_, chunks, _) -> String.concat "" (Array.to_list chunks)) complete;
    journal_pages = List.rev !page_ids;
  }
