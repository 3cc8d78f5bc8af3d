module Eid = Txq_vxml.Eid
module Vnode = Txq_vxml.Vnode
module Db = Txq_db.Db
module Docstore = Txq_db.Docstore
module Timestamp = Txq_temporal.Timestamp
module Interval = Txq_temporal.Interval

type doc_version = {
  dv_teid : Eid.Temporal.t;
  dv_version : int;
  dv_interval : Interval.t;
}

let clip_interval d ~t1 ~t2 v =
  let window = Interval.make ~start:t1 ~stop:t2 in
  match Interval.intersect (Docstore.version_interval d v) window with
  | Some iv -> iv
  | None -> assert false (* callers only clip overlapping versions *)

(* The versions of [doc_id] overlapping [\[t1, t2)], as [f range
   entry]: [range] is [Docstore.versions_overlapping]'s, [entry v] the
   listing of version [v] — its root TEID and clipped validity. *)
let overlapping db doc_id ~t1 ~t2 f =
  if Timestamp.(t2 <= t1) then []
  else
    let d = Db.doc db doc_id in
    match Docstore.versions_overlapping d ~t1 ~t2 with
    | None -> []
    | Some range ->
      let root = Eid.make ~doc:doc_id ~xid:(Vnode.xid (Docstore.current d)) in
      f range (fun v ->
          let clipped = clip_interval d ~t1 ~t2 v in
          { dv_teid = Eid.Temporal.make root (Interval.start clipped);
            dv_version = v; dv_interval = clipped })

let doc_history db doc_id ~t1 ~t2 =
  Txq_obs.Trace.with_span "history.doc_history" @@ fun () ->
  (* most recent first; versions below the first retained one were
     vacuumed and cannot be listed *)
  overlapping db doc_id ~t1 ~t2 @@ fun (v_lo, v_hi) entry ->
  List.init (v_hi - v_lo + 1) (fun i -> entry (v_hi - i))

module Xidmap = Txq_vxml.Xidmap
module Delta = Txq_vxml.Delta

type element_version = {
  ev_teid : Eid.Temporal.t;
  ev_version : int;
  ev_interval : Interval.t;
  ev_tree : Vnode.t;
}

let doc_history_trees db doc_id ~t1 ~t2 =
  Txq_obs.Trace.with_span "history.doc_history_trees" @@ fun () ->
  overlapping db doc_id ~t1 ~t2 @@ fun (v_lo, v_hi) entry ->
  List.map
    (fun (v, tree) -> (entry v, tree))
    (Db.reconstruct_range db doc_id ~lo:v_lo ~hi:v_hi)

(* --- single-sweep element history --------------------------------------- *)

(* Runs of consecutive versions over which the element's subtree is
   unchanged (no delta operation touched it and its presence never
   flipped), newest first.  Within a run the subtree is byte- and
   XID-identical across versions, so the per-version history is just the
   run expanded.  The sweep follows a map of the element's own subtree
   ([Delta.apply_backward_local]), not of the whole document; only a delta
   that moves an outside node into the element going backward re-seeds it
   from that delta's whole older version. *)
let sweep_runs db eid ~t1 ~t2 =
  let doc = eid.Eid.doc and root_xid = eid.Eid.xid in
  match Docstore.versions_overlapping (Db.doc db doc) ~t1 ~t2 with
  | None -> []
  | Some (v_lo, v_hi) ->
    (* nodes mapped over the sweep: the seed and every re-seed *)
    let mapped = ref 0 in
    let count map = mapped := !mapped + Xidmap.size map; map in
    (* the map of the element's subtree in version [v] *)
    let seed v =
      Option.map
        (fun sub -> count (Xidmap.of_vnode sub))
        (Vnode.find (Db.reconstruct db doc v) root_xid)
    in
    let io = Db.io_stats db in
    let out = ref [] in
    let emit ~run_lo ~run_hi tree = out := (run_lo, run_hi, tree) :: !out in
    (* walk newest -> oldest; [local] is the element's map in state v,
       [run_hi] the top of the current run and [run_tree] its content
       (None while the element is absent) *)
    let local = ref (seed v_hi) in
    let run_tree = ref (Option.map Xidmap.to_vnode !local) in
    let run_hi = ref v_hi in
    for v = v_hi downto v_lo + 1 do
      (* step from state v to state v-1 *)
      let delta = Db.read_delta db doc v in
      let touched =
        match Delta.apply_backward_local root_xid !local delta with
        | Delta.Untouched -> false
        | Delta.Touched map ->
          (match (!local, map) with
           | None, Some m -> ignore (count m)
           | _ -> ());
          local := map;
          true
        | Delta.Moved_in ->
          local := seed (v - 1);
          true
      in
      io.Txq_store.Io_stats.deltas_applied <-
        io.Txq_store.Io_stats.deltas_applied + 1;
      Txq_obs.Trace.add_count "deltas_applied" 1;
      if touched then begin
        (* the run [v .. run_hi] ends; emit it if the element existed *)
        (match !run_tree with
         | Some tree -> emit ~run_lo:v ~run_hi:!run_hi tree
         | None -> ());
        run_hi := v - 1;
        run_tree := Option.map Xidmap.to_vnode !local
      end
    done;
    (match !run_tree with
     | Some tree -> emit ~run_lo:v_lo ~run_hi:!run_hi tree
     | None -> ());
    Txq_obs.Trace.add_count "mapped_nodes" !mapped;
    (* emitted oldest-last while walking down; !out is oldest-first, return
       newest-first *)
    List.rev !out

let element_history_sweep db eid ~t1 ~t2 () =
  Txq_obs.Trace.with_span "history.element_history_sweep" @@ fun () ->
  let d = Db.doc db eid.Eid.doc in
  let clip = clip_interval d ~t1 ~t2 in
  List.map
    (fun (run_lo, run_hi, tree) ->
      let interval =
        Interval.make
          ~start:(Interval.start (clip run_lo))
          ~stop:(Interval.stop (clip run_hi))
      in
      {
        ev_teid = Eid.Temporal.make eid (Interval.start interval);
        ev_version = run_lo;
        ev_interval = interval;
        ev_tree = tree;
      })
    (sweep_runs db eid ~t1 ~t2)

let element_history db eid ~t1 ~t2 ?(distinct = false) () =
  if distinct then element_history_sweep db eid ~t1 ~t2 ()
  else
    Txq_obs.Trace.with_span "history.element_history" @@ fun () ->
    (* per-version history = the distinct runs expanded: within a run the
       subtree is identical (XIDs included), only the intervals differ *)
    let d = Db.doc db eid.Eid.doc in
    let clip = clip_interval d ~t1 ~t2 in
    List.concat_map
      (fun (run_lo, run_hi, tree) ->
        List.init
          (run_hi - run_lo + 1)
          (fun i ->
            let v = run_hi - i in
            let interval = clip v in
            {
              ev_teid = Eid.Temporal.make eid (Interval.start interval);
              ev_version = v;
              ev_interval = interval;
              ev_tree = tree;
            }))
      (sweep_runs db eid ~t1 ~t2)
