(* A writer-preferring reader-writer lock over domains and their threads.

   A holder is one systhread of one domain: the pair of their ids.  Two
   threads of one domain are distinct holders, so one thread's read lock
   never counts as another's.

   Readers are re-entrant (a thread already holding a read lock may take
   it again), and a thread holding the write lock may take read locks
   freely — operators compose, so a read path invoked from inside a
   mutator must not self-deadlock.  Upgrading (read -> write) is refused:
   two upgraders would deadlock each other, so the bug is surfaced
   immediately instead.

   Writer preference: once a writer is waiting, fresh readers queue
   behind it.  Re-entrant acquisitions are exempt — they cannot wait
   without deadlocking the reader the writer is itself waiting for. *)

(* (domain id, thread id) *)
type holder = int * int

type t = {
  m : Mutex.t;
  can_read : Condition.t;
  can_write : Condition.t;
  mutable readers : int;  (* holders of a read lock (outermost only) *)
  mutable writer : holder option;  (* holder of the write lock *)
  mutable writer_depth : int;
  mutable writers_waiting : int;
  (* per-holder read re-entry depth; absent = 0 *)
  depths : (holder, int) Hashtbl.t;
}

let create () =
  {
    m = Mutex.create ();
    can_read = Condition.create ();
    can_write = Condition.create ();
    readers = 0;
    writer = None;
    writer_depth = 0;
    writers_waiting = 0;
    depths = Hashtbl.create 8;
  }

let self () : holder = ((Domain.self () :> int), Thread.id (Thread.self ()))

let depth_of t id =
  match Hashtbl.find_opt t.depths id with Some d -> d | None -> 0

let holds_write_locked t id = t.writer = Some id

let read_lock t =
  let id = self () in
  Mutex.lock t.m;
  (* write lock held by this thread: reads nest inside it for free *)
  if holds_write_locked t id then Mutex.unlock t.m
  else begin
    let d = depth_of t id in
    if d > 0 then begin
      Hashtbl.replace t.depths id (d + 1);
      Mutex.unlock t.m
    end
    else begin
      while t.writer <> None || t.writers_waiting > 0 do
        Condition.wait t.can_read t.m
      done;
      t.readers <- t.readers + 1;
      Hashtbl.replace t.depths id 1;
      Mutex.unlock t.m
    end
  end

let read_unlock t =
  let id = self () in
  Mutex.lock t.m;
  if holds_write_locked t id then Mutex.unlock t.m
  else begin
    (match depth_of t id with
     | 0 ->
       Mutex.unlock t.m;
       invalid_arg "Rwlock.read_unlock: lock not held by this thread"
     | 1 ->
       Hashtbl.remove t.depths id;
       t.readers <- t.readers - 1;
       if t.readers = 0 then Condition.signal t.can_write;
       Mutex.unlock t.m
     | d ->
       Hashtbl.replace t.depths id (d - 1);
       Mutex.unlock t.m)
  end

let write_lock t =
  let id = self () in
  Mutex.lock t.m;
  if holds_write_locked t id then begin
    t.writer_depth <- t.writer_depth + 1;
    Mutex.unlock t.m
  end
  else if depth_of t id > 0 then begin
    Mutex.unlock t.m;
    invalid_arg "Rwlock.write_lock: read -> write upgrade would deadlock"
  end
  else begin
    t.writers_waiting <- t.writers_waiting + 1;
    while t.writer <> None || t.readers > 0 do
      Condition.wait t.can_write t.m
    done;
    t.writers_waiting <- t.writers_waiting - 1;
    t.writer <- Some id;
    t.writer_depth <- 1;
    Mutex.unlock t.m
  end

let write_unlock t =
  let id = self () in
  Mutex.lock t.m;
  if not (holds_write_locked t id) then begin
    Mutex.unlock t.m;
    invalid_arg "Rwlock.write_unlock: lock not held by this thread"
  end
  else begin
    t.writer_depth <- t.writer_depth - 1;
    if t.writer_depth = 0 then begin
      t.writer <- None;
      if t.writers_waiting > 0 then Condition.signal t.can_write
      else Condition.broadcast t.can_read
    end;
    Mutex.unlock t.m
  end

(* Non-blocking write acquisition.  Refuses (rather than raises) when
   this thread holds a read lock, and defers to a queued writer even
   when the lock is momentarily free — an opportunistic caller should
   never jump the writer queue. *)
let try_write_lock t =
  let id = self () in
  Mutex.lock t.m;
  if holds_write_locked t id then begin
    t.writer_depth <- t.writer_depth + 1;
    Mutex.unlock t.m;
    true
  end
  else if
    depth_of t id > 0 || t.writer <> None || t.readers > 0
    || t.writers_waiting > 0
  then begin
    Mutex.unlock t.m;
    false
  end
  else begin
    t.writer <- Some id;
    t.writer_depth <- 1;
    Mutex.unlock t.m;
    true
  end

let with_read t f =
  read_lock t;
  Fun.protect ~finally:(fun () -> read_unlock t) f

let with_write t f =
  write_lock t;
  Fun.protect ~finally:(fun () -> write_unlock t) f

let try_with_write t f =
  if try_write_lock t then
    Some (Fun.protect ~finally:(fun () -> write_unlock t) f)
  else None
