open Txq_store

(* --- disk ------------------------------------------------------------- *)

let test_disk_alloc_rw () =
  let d = Disk.create () in
  let p0 = Disk.alloc d and p1 = Disk.alloc d in
  Alcotest.(check int) "sequential ids" 1 (p1 - p0);
  Disk.write d p0 (Bytes.of_string "hello");
  let got = Disk.read d p0 in
  Alcotest.(check string) "contents" "hello" (Bytes.sub_string got 0 5);
  Alcotest.(check int) "zero padding" 0 (Char.code (Bytes.get got 5));
  Alcotest.(check int) "page count" 2 (Disk.page_count d)

let test_disk_bounds () =
  let d = Disk.create () in
  Alcotest.check_raises "read out of range"
    (Invalid_argument "Disk: bad page id 0 (of 0)") (fun () ->
      ignore (Disk.read d 0))

let test_disk_seek_accounting () =
  let d = Disk.create () in
  let pages = List.init 10 (fun _ -> Disk.alloc d) in
  List.iter (fun p -> Disk.write d p (Bytes.of_string "x")) pages;
  let before = Io_stats.copy (Disk.stats d) in
  (* sequential scan: no seeks beyond the first repositioning *)
  List.iter (fun p -> ignore (Disk.read d p)) pages;
  let seq = Io_stats.diff ~after:(Io_stats.copy (Disk.stats d)) ~before in
  (* random-ish far jumps: every access seeks *)
  let before = Io_stats.copy (Disk.stats d) in
  List.iter (fun p -> ignore (Disk.read d p)) [0; 5; 1; 7; 3];
  let rnd = Io_stats.diff ~after:(Io_stats.copy (Disk.stats d)) ~before in
  Alcotest.(check int) "sequential reads" 10 seq.Io_stats.page_reads;
  Alcotest.(check bool) "sequential mostly seek-free" true
    (seq.Io_stats.seeks <= 1);
  Alcotest.(check int) "jumping seeks every time" 5 rnd.Io_stats.seeks

(* --- buffer pool ------------------------------------------------------ *)

let test_pool_caches () =
  let d = Disk.create () in
  let pool = Buffer_pool.create ~capacity:4 d in
  let p = Buffer_pool.alloc pool in
  Buffer_pool.write pool p (Bytes.of_string "data");
  let before = Io_stats.copy (Buffer_pool.stats pool) in
  ignore (Buffer_pool.read pool p);
  ignore (Buffer_pool.read pool p);
  let after = Io_stats.diff ~after:(Io_stats.copy (Buffer_pool.stats pool)) ~before in
  Alcotest.(check int) "no disk reads" 0 after.Io_stats.page_reads;
  Alcotest.(check int) "two hits" 2 after.Io_stats.cache_hits

let test_pool_evicts_lru () =
  let d = Disk.create () in
  let pool = Buffer_pool.create ~capacity:2 d in
  let p0 = Buffer_pool.alloc pool
  and p1 = Buffer_pool.alloc pool
  and p2 = Buffer_pool.alloc pool in
  List.iter (fun p -> Buffer_pool.write pool p (Bytes.of_string "x")) [p0; p1; p2];
  (* capacity 2: p0 was evicted when p2 arrived *)
  ignore (Buffer_pool.read pool p1);
  let before = Io_stats.copy (Buffer_pool.stats pool) in
  ignore (Buffer_pool.read pool p0);
  let after = Io_stats.diff ~after:(Io_stats.copy (Buffer_pool.stats pool)) ~before in
  Alcotest.(check int) "miss on evicted page" 1 after.Io_stats.cache_misses;
  Alcotest.(check int) "re-read from disk" 1 after.Io_stats.page_reads

let test_pool_flush () =
  let d = Disk.create () in
  let pool = Buffer_pool.create ~capacity:4 d in
  let p = Buffer_pool.alloc pool in
  Buffer_pool.write pool p (Bytes.of_string "persisted");
  Buffer_pool.flush pool;
  let got = Buffer_pool.read pool p in
  Alcotest.(check string) "survives flush" "persisted" (Bytes.sub_string got 0 9)

(* --- blob store ------------------------------------------------------- *)

let mk_store ?policy () =
  let d = Disk.create () in
  let pool = Buffer_pool.create ~capacity:64 d in
  (Blob_store.create ?policy pool, pool)

let test_blob_roundtrip () =
  let store, _ = mk_store () in
  let small = "tiny" in
  let big = String.init 10_000 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let b1 = Blob_store.put store small in
  let b2 = Blob_store.put store big in
  Alcotest.(check string) "small roundtrip" small (Blob_store.get store b1);
  Alcotest.(check string) "multi-page roundtrip" big (Blob_store.get store b2);
  Alcotest.(check int) "page math" 3 (Blob_store.pages_used b2)

let test_blob_empty () =
  let store, _ = mk_store () in
  let b = Blob_store.put store "" in
  Alcotest.(check string) "empty blob" "" (Blob_store.get store b)

let seeks_for_cluster_scan ~policy =
  let store, pool = mk_store ~policy () in
  (* interleave writes of two "documents" so unclustered placement spreads
     each document's blobs *)
  let blobs_a = ref [] and blobs_b = ref [] in
  for i = 0 to 19 do
    let payload = Printf.sprintf "%d-%s" i (String.make 600 'x') in
    blobs_a := Blob_store.put store ~cluster:1 payload :: !blobs_a;
    blobs_b := Blob_store.put store ~cluster:2 payload :: !blobs_b
  done;
  Buffer_pool.flush pool;
  Io_stats.reset (Buffer_pool.stats pool);
  List.iter (fun b -> ignore (Blob_store.get store b)) (List.rev !blobs_a);
  (Buffer_pool.stats pool).Io_stats.seeks

let test_blob_clustering () =
  let unclustered = seeks_for_cluster_scan ~policy:`Unclustered in
  let clustered = seeks_for_cluster_scan ~policy:(`Clustered 16) in
  Alcotest.(check bool)
    (Printf.sprintf "clustered (%d) has fewer seeks than unclustered (%d)"
       clustered unclustered)
    true
    (clustered < unclustered)

let prop_blob_roundtrip =
  QCheck.Test.make ~count:200 ~name:"blob roundtrip (arbitrary strings)"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 9000) QCheck.Gen.char)
    (fun s ->
      let store, _ = mk_store () in
      let b = Blob_store.put store s in
      String.equal s (Blob_store.get store b))

(* --- vec ---------------------------------------------------------------- *)

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  Alcotest.(check bool) "no last" true (Vec.last v = None);
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42);
  Alcotest.(check (option int)) "last" (Some 198) (Vec.last v);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "fold" 100 (Vec.fold_left (fun n _ -> n + 1) 0 v);
  Alcotest.check_raises "bounds" (Invalid_argument "Vec: index 100 out of bounds (len 100)")
    (fun () -> ignore (Vec.get v 100))

let prop_vec_find_last_index =
  QCheck.Test.make ~count:300 ~name:"vec find_last_index ≡ linear scan"
    QCheck.(pair (int_bound 50) (int_bound 60))
    (fun (n, threshold) ->
      let v = Vec.create () in
      for i = 0 to n - 1 do
        Vec.push v (i * 2) (* monotone values *)
      done;
      let via_binary = Vec.find_last_index (fun x -> x <= threshold) v in
      let via_scan =
        let best = ref None in
        Vec.iteri (fun i x -> if x <= threshold then best := Some i) v;
        !best
      in
      via_binary = via_scan)

(* Single-writer / multi-reader publication: while one domain pushes,
   reader domains must only ever observe a consistent prefix — every
   index below the length they saw holds its final value, across
   reallocations.  (The seed Vec published the grown array with a plain
   store, which let readers see uninitialized slots on weak memory.) *)
let test_vec_concurrent_readers () =
  let v = Vec.create () in
  let total = 20_000 in
  let readers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            let seen = ref 0 in
            while !seen < total do
              let n = Vec.length v in
              for i = !seen to n - 1 do
                if Vec.get v i <> i * 3 then ok := false
              done;
              (match Vec.last v with
               | Some x when n > 0 && x mod 3 <> 0 -> ok := false
               | _ -> ());
              if n > !seen then seen := n else Domain.cpu_relax ()
            done;
            !ok))
  in
  for i = 0 to total - 1 do
    Vec.push v (i * 3)
  done;
  List.iter
    (fun d ->
      Alcotest.(check bool) "reader saw a consistent prefix" true
        (Domain.join d))
    readers

(* --- bptree -------------------------------------------------------------- *)

let mk_tree () =
  let d = Disk.create () in
  let pool = Buffer_pool.create ~capacity:256 d in
  (Bptree.create pool, pool)

let test_bptree_empty () =
  let t, _ = mk_tree () in
  Alcotest.(check (option (pair int64 int64))) "find in empty" None
    (Bptree.find t 5L);
  Alcotest.(check int) "no entries" 0 (Bptree.entry_count t);
  Alcotest.(check int) "height 1" 1 (Bptree.height t);
  Alcotest.(check (list (pair int64 (pair int64 int64)))) "empty range" []
    (Bptree.range t ~lo:0L ~hi:100L)

let test_bptree_basic () =
  let t, _ = mk_tree () in
  Bptree.insert t ~key:10L (1L, 2L);
  Bptree.insert t ~key:5L (3L, 4L);
  Bptree.insert t ~key:20L (5L, 6L);
  Alcotest.(check (option (pair int64 int64))) "find 5" (Some (3L, 4L))
    (Bptree.find t 5L);
  Alcotest.(check (option (pair int64 int64))) "find 10" (Some (1L, 2L))
    (Bptree.find t 10L);
  Alcotest.(check (option (pair int64 int64))) "miss" None (Bptree.find t 7L);
  (* upsert *)
  Bptree.insert t ~key:10L (9L, 9L);
  Alcotest.(check (option (pair int64 int64))) "upsert" (Some (9L, 9L))
    (Bptree.find t 10L);
  Alcotest.(check int) "entry count ignores upserts" 3 (Bptree.entry_count t);
  Alcotest.(check (list int64)) "range keys in order" [5L; 10L]
    (List.map fst (Bptree.range t ~lo:1L ~hi:11L))

let test_bptree_splits () =
  let t, _ = mk_tree () in
  let n = 10_000 in
  (* insert in a mixed order: even keys descending, odd ascending *)
  for i = n downto 0 do
    if i mod 2 = 0 then Bptree.insert t ~key:(Int64.of_int i) (Int64.of_int i, 0L)
  done;
  for i = 0 to n do
    if i mod 2 = 1 then Bptree.insert t ~key:(Int64.of_int i) (Int64.of_int i, 1L)
  done;
  Alcotest.(check int) "all entries" (n + 1) (Bptree.entry_count t);
  Alcotest.(check bool) "tree grew" true (Bptree.height t >= 2);
  Alcotest.(check bool) "pages allocated" true (Bptree.page_count t > 10);
  (* spot checks *)
  for i = 0 to 100 do
    let k = Int64.of_int (i * 97) in
    if i * 97 <= n then
      Alcotest.(check bool)
        (Printf.sprintf "find %d" (i * 97))
        true
        (Bptree.find t k <> None)
  done;
  (* full scan is sorted and complete *)
  let count = ref 0 and prev = ref Int64.min_int in
  Bptree.iter t (fun k _ ->
      incr count;
      Alcotest.(check bool) "sorted" true (Int64.compare !prev k < 0);
      prev := k);
  Alcotest.(check int) "iter sees all" (n + 1) !count

let prop_bptree_vs_map =
  let module M = Map.Make (Int64) in
  QCheck.Test.make ~count:60 ~name:"bptree ≡ Map (random ops)"
    QCheck.(
      list_of_size (QCheck.Gen.int_range 0 400)
        (pair (map Int64.of_int (int_bound 500)) (map Int64.of_int small_nat)))
    (fun ops ->
      let t, _ = mk_tree () in
      let model =
        List.fold_left
          (fun m (k, v) ->
            Bptree.insert t ~key:k (v, Int64.neg v);
            M.add k (v, Int64.neg v) m)
          M.empty ops
      in
      (* point lookups *)
      List.for_all
        (fun k -> Bptree.find t k = M.find_opt k model)
        (List.init 60 (fun i -> Int64.of_int (i * 10)))
      (* range scan *)
      && Bptree.range t ~lo:100L ~hi:300L
         = M.bindings
             (M.filter (fun k _ -> Int64.compare 100L k <= 0 && Int64.compare k 300L < 0) model)
      && Bptree.entry_count t = M.cardinal model)

(* --- disk directory save/load ------------------------------------------ *)

let fill_disk () =
  let d = Disk.create () in
  let st = Random.State.make [| 0xd15c; 7 |] in
  for _ = 1 to 100 do
    let p = Disk.alloc d in
    let b = Bytes.init (1 + Random.State.int st Disk.page_size) (fun _ ->
        Char.chr (Random.State.int st 256)) in
    Disk.write d p b
  done;
  d

let disks_equal a b =
  Disk.page_count a = Disk.page_count b
  && List.for_all
       (fun i -> Bytes.equal (Disk.read a i) (Disk.read b i))
       (List.init (Disk.page_count a) Fun.id)

let in_tmp f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "txq-store-test-%d" (Unix.getpid ()))
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then rm dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let test_save_load_roundtrip () =
  in_tmp @@ fun dir ->
  let d = fill_disk () in
  let target = Filename.concat dir "image" in
  Disk.save_to_dir d target;
  Alcotest.(check bool) "round-trips" true
    (disks_equal d (Disk.load_from_dir target));
  (* the target is create-only: a second save must refuse, not clobber *)
  (match Disk.save_to_dir d target with
   | () -> Alcotest.fail "expected Invalid_argument on an existing target"
   | exception Invalid_argument _ -> ());
  (match Disk.load_from_dir (Filename.concat dir "nowhere") with
   | (_ : Disk.t) -> Alcotest.fail "expected Failure on a missing image"
   | exception Failure _ -> ())

(* Crash the save at every filesystem-operation boundary (torn mkdir, torn
   chunk, torn manifest, torn rename): the target directory must never
   appear — all the debris a crash may leave is the staging directory,
   which the next save sweeps away. *)
let test_save_crash_sweep () =
  in_tmp @@ fun dir ->
  let d = fill_disk () in
  let before = Disk.fs_ops d in
  Disk.save_to_dir d (Filename.concat dir "count");
  let full_ops = Disk.fs_ops d - before in
  Alcotest.(check bool)
    (Printf.sprintf "save is multi-step (%d fs ops)" full_ops)
    true (full_ops >= 3);
  let target = Filename.concat dir "image" in
  for i = 1 to full_ops do
    Disk.fail_after_writes d i;
    (match Disk.save_to_dir d target with
     | () -> Alcotest.failf "fs op %d of %d did not crash the save" i full_ops
     | exception Disk.Crash -> ());
    Disk.clear_fault d;
    if Sys.file_exists target then
      Alcotest.failf "crash at fs op %d exposed a torn target directory" i
  done;
  (* the retry after the last crash succeeds over the leftover staging *)
  Disk.save_to_dir d target;
  Alcotest.(check bool) "uncrashed retry round-trips" true
    (disks_equal d (Disk.load_from_dir target))

(* --- rwlock ---------------------------------------------------------------- *)

(* Two systhreads of one domain are two lock holders: thread A holds the
   read lock, thread B of the same domain asks for the write lock.  B must
   wait until A releases, then get it — not take A's read lock for its own
   and refuse an upgrade. *)
let test_rwlock_threads_of_one_domain () =
  let l = Rwlock.create () in
  let a_reading = Atomic.make false
  and a_release = Atomic.make false
  and a_released = Atomic.make false in
  let a =
    Thread.create
      (fun () ->
        Rwlock.with_read l (fun () ->
            Atomic.set a_reading true;
            while not (Atomic.get a_release) do Thread.yield () done;
            Atomic.set a_released true))
      ()
  in
  while not (Atomic.get a_reading) do Thread.yield () done;
  let b_outcome = Atomic.make None in
  let b =
    Thread.create
      (fun () ->
        Atomic.set b_outcome
          (Some
             (match Rwlock.with_write l (fun () -> Atomic.get a_released) with
              | after_a -> Ok after_a
              | exception e -> Error (Printexc.to_string e))))
      ()
  in
  Thread.delay 0.05;
  let early = Atomic.get b_outcome in
  Atomic.set a_release true;
  Thread.join a;
  Thread.join b;
  (match early with
   | None -> ()
   | Some (Ok _) -> Alcotest.fail "B took the write lock while A was reading"
   | Some (Error e) -> Alcotest.failf "B raised while A was reading: %s" e);
  match Atomic.get b_outcome with
  | Some (Ok true) -> ()
  | Some (Ok false) -> Alcotest.fail "B wrote before A released"
  | Some (Error e) -> Alcotest.failf "B raised: %s" e
  | None -> Alcotest.fail "B never finished"

let () =
  Alcotest.run "store"
    [
      ( "disk",
        [
          Alcotest.test_case "alloc/read/write" `Quick test_disk_alloc_rw;
          Alcotest.test_case "bounds" `Quick test_disk_bounds;
          Alcotest.test_case "seek accounting" `Quick test_disk_seek_accounting;
          Alcotest.test_case "save/load round-trip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "save crash sweep" `Quick test_save_crash_sweep;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "caches reads" `Quick test_pool_caches;
          Alcotest.test_case "LRU eviction" `Quick test_pool_evicts_lru;
          Alcotest.test_case "flush" `Quick test_pool_flush;
        ] );
      ( "blob_store",
        [
          Alcotest.test_case "roundtrip" `Quick test_blob_roundtrip;
          Alcotest.test_case "empty blob" `Quick test_blob_empty;
          Alcotest.test_case "clustering reduces seeks" `Quick test_blob_clustering;
          QCheck_alcotest.to_alcotest prop_blob_roundtrip;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "concurrent readers" `Quick
            test_vec_concurrent_readers;
          QCheck_alcotest.to_alcotest prop_vec_find_last_index;
        ] );
      ( "bptree",
        [
          Alcotest.test_case "empty" `Quick test_bptree_empty;
          Alcotest.test_case "basics" `Quick test_bptree_basic;
          Alcotest.test_case "splits at scale" `Quick test_bptree_splits;
          QCheck_alcotest.to_alcotest prop_bptree_vs_map;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "same-domain threads are two holders"
            `Quick test_rwlock_threads_of_one_domain;
        ] );
    ]
