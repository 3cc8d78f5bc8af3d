(* QCheck generators for storage-layer artifacts: raw journal payloads and
   typed journal records.  Shared by the journal round-trip properties and
   the recovery tests. *)

module J = Txq_db.Journal_record

(* Payloads from one byte up to several journal pages, so multi-page record
   framing is exercised; the content is arbitrary binary. *)
let gen_payload =
  QCheck.Gen.(
    frequency
      [
        (4, string_size ~gen:char (int_range 1 200));
        (2, string_size ~gen:char (int_range 200 4_060));
        (1, string_size ~gen:char (int_range 4_060 13_000));
      ])

let arb_payload =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%d bytes: %S…" (String.length s)
               (String.sub s 0 (Stdlib.min 32 (String.length s))))
    gen_payload

let arb_payloads =
  QCheck.make
    ~print:(fun l ->
      String.concat ", " (List.map (fun s -> string_of_int (String.length s)) l))
    QCheck.Gen.(list_size (int_range 1 12) gen_payload)

(* --- typed journal records --------------------------------------------- *)

let gen_blob_ref =
  QCheck.Gen.(
    list_size (int_range 1 6) (int_range 0 100_000) >>= fun pages ->
    int_range 0 (4_096 * List.length pages) >>= fun len ->
    return { J.br_pages = pages; br_length = len })

let gen_url =
  QCheck.Gen.(
    frequency
      [
        (4, oneofl [ "a.xml"; "news/today"; "catalog"; "" ]);
        (1, string_size ~gen:printable (int_range 0 60));
      ])

(* Timestamps include negative seconds (instants before the epoch). *)
let gen_seconds = QCheck.Gen.int_range (-1_000_000_000) 4_000_000_000

let gen_record =
  QCheck.Gen.(
    let opt g = frequency [ (1, return None); (2, map Option.some g) ] in
    frequency
      [
        ( 3,
          gen_url >>= fun r_url ->
          int_range 0 10_000 >>= fun r_doc ->
          gen_seconds >>= fun r_ts ->
          gen_blob_ref >>= fun r_current ->
          opt gen_blob_ref >>= fun r_snapshot ->
          return (J.Insert { r_doc; r_url; r_ts; r_current; r_snapshot })
        );
        ( 4,
          int_range 0 10_000 >>= fun r_doc ->
          int_range 1 100_000 >>= fun r_version ->
          gen_seconds >>= fun r_ts ->
          gen_blob_ref >>= fun r_delta ->
          gen_blob_ref >>= fun r_current ->
          opt gen_blob_ref >>= fun r_snapshot ->
          return
            (J.Commit
               { r_doc; r_version; r_ts; r_delta; r_current; r_snapshot }) );
        ( 1,
          int_range 0 10_000 >>= fun r_doc ->
          gen_seconds >>= fun r_ts ->
          return (J.Delete { r_doc; r_ts }) );
        ( 2,
          let gen_vacuum_doc =
            int_range 0 10_000 >>= fun vd_doc ->
            bool >>= fun vd_drop ->
            int_range 0 100_000 >>= fun vd_base ->
            opt gen_blob_ref >>= fun vd_snapshot ->
            int_range 0 1_000_000 >>= fun vd_xid_watermark ->
            return
              { J.vd_doc; vd_base; vd_drop; vd_snapshot; vd_xid_watermark }
          in
          gen_seconds >>= fun r_ts ->
          list_size (int_range 0 6) gen_vacuum_doc >>= fun r_docs ->
          return (J.Vacuum { r_ts; r_docs }) );
      ])

let arb_record =
  QCheck.make ~print:(fun r -> Format.asprintf "%a" J.pp r) gen_record
