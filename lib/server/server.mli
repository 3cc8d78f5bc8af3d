(** txmldbd: the multi-client query server.

    One process owns the live {!Txq_db.Db.t}.  A bounded pool of reader
    domains each runs an accept-and-serve loop on a shared listening
    socket, so at most [readers] connections are served at once (further
    connections queue in the listen backlog).  Every read request pins a
    fresh {!Txq_db.Db.snapshot} for exactly the duration of the request —
    released on every exit path — while writes go straight to the live
    handle, serialized by the engine's single group-committed writer.

    Statement results stream: rows are rendered one at a time into
    bounded chunks ({!config.chunk_bytes}), so a scan over an arbitrarily
    deep version chain never materializes its result document.

    The same port speaks minimal HTTP/1.1 for [GET /metrics] and
    [GET /stats] (detected per connection from the first bytes), serving
    the {!Txq_obs.Metrics} registry — including the server's own
    counters: [server.requests], [server.bytes_out], [server.errors],
    [server.connections_total], and the [server.active_connections] /
    [server.active_snapshots] gauges. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  readers : int;  (** size of the reader-domain pool *)
  max_frame : int;  (** reject request frames above this *)
  chunk_bytes : int;  (** flush threshold for streamed results *)
  idle_timeout_s : float;
      (** receive-timeout granularity at which idle connections and the
          accept loop re-check the shutdown flag *)
  grace_s : float;
      (** how long {!stop} waits for in-flight connections to drain
          before force-closing them *)
}

val default_config : config
(** localhost, ephemeral port, 4 readers, 4 MiB frames, 8 KiB chunks,
    0.25 s poll, 5 s grace. *)

type t

val start : ?config:config -> Txq_db.Db.t -> t
(** Binds, listens, and spawns the reader pool.  The handle must be the
    live database, not a snapshot.  Ignores [SIGPIPE] process-wide (a
    dead peer must surface as [EPIPE] on the connection, not kill the
    daemon). *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val stop : t -> int
(** Graceful shutdown: stop accepting, answer in-flight requests with
    [E_shutting_down], wait up to [grace_s] for connections to drain,
    force-shutdown the stragglers, join every reader domain, close the
    listener.  Returns the number of snapshots still pinned afterwards —
    always 0 unless a request leaked its pin, which the shutdown tests
    assert never happens.  Idempotent; concurrent calls are safe. *)
