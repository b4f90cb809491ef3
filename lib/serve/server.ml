(* The event-loop verdict server.

   One [Unix.select] loop in one domain owns every connection: the
   listening socket, the stop pipe and the nonblocking connections sit
   in the same select set.  Reads drive {!Protocol.scan_at} over a
   compacting per-connection buffer; [Branch_events] spans are walked
   straight into the checker through {!Session.handle_events_span}
   (no event list, no frame value), control frames go through
   {!Protocol.decode_span}.  Writes never block: replies go through
   a bounded per-connection queue flushed opportunistically and on
   writability, with a global in-flight byte cap on top — when either
   bound would be exceeded the client gets one typed [Overloaded] error
   frame and the connection drains and closes.  Backpressure, never
   unbounded buffering.  A connection whose descriptor [select] cannot
   watch is refused the same way.

   Loaded systems live in one {!Lru} that every {!Session} of the
   server shares.  More cores means more shard processes
   ([ipds fleet --shards N]), not more loops in one process. *)

module Store = Ipds_artifact.Store
module Reg = Ipds_obs.Registry

(* Overload shedding depends on timing, so the counter is unstable. *)
let m_overloaded = Reg.counter ~stable:false "serve.overloaded"

(* Fleet artifact sharing: where this server may fetch verified
   artifacts from on a local-store miss, instead of answering
   [unknown-artifact] and forcing the client to recompile. *)
type peer_sharing = {
  peer_topology : Ipds_fleet.Topology.t;
  peer_self : int;  (** this server's own shard index (never asked) *)
  peer_backoff : Ipds_fleet.Backoff.t;
}

type config = {
  max_frame : int;  (** payload-size limit, bytes *)
  session_timeout : float;  (** seconds a session may sit idle; 0 = none *)
  cache_slots : int;  (** loaded [System.t]s kept in the LRU *)
  store_dir : string option;
      (** artifact store for [Load_key]; [None] uses the ambient store *)
  reply_queue_bytes : int;  (** per-connection reply-queue bound *)
  inflight_bytes : int;  (** global bound on queued reply bytes *)
  peers : peer_sharing option;  (** fleet peers to warm the store from *)
}

let default_config =
  {
    max_frame = Protocol.default_max_frame;
    session_timeout = 30.;
    cache_slots = 8;
    store_dir = None;
    reply_queue_bytes = 8 * 1024 * 1024;
    inflight_bytes = 64 * 1024 * 1024;
    peers = None;
  }

type address = [ `Unix of string | `Tcp of int ]

type out_chunk = { chunk : Bytes.t; mutable off : int }

type conn = {
  fd : Unix.file_descr;
  session : Session.t;
  mutable inbuf : Bytes.t;
  mutable in_start : int;
  mutable in_len : int;
  outq : out_chunk Queue.t;
  mutable out_bytes : int;
  mutable last_active : float;
  mutable closing : bool;  (** stop reading; close once the queue drains *)
  mutable dead : bool;  (** close and reap now *)
}

type t = {
  config : config;
  store : Store.t option;
  peer_fetch : (string -> (string, Protocol.err) result) option;
  cache : Ipds_core.System.t Lru.t;
  fd : Unix.file_descr;
  sock_path : string option;
  stop_flag : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable conns : conn list;
  mutable inflight : int;  (** queued reply bytes across all connections *)
  mutable loop_domain : unit Domain.t option;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The empty-verdicts reply — the overwhelmingly common case — is one
   shared pre-encoded frame; queued chunks are write-only, so sharing
   the bytes across connections is safe.  Built eagerly at module
   initialisation: servers in one process run their loops in separate
   domains, and a top-level [lazy] forced by two of them at once can
   raise [CamlinternalLazy.Undefined]. *)
let empty_verdicts = Protocol.encode_frame (Protocol.Verdicts [])

let overloaded detail =
  Protocol.encode_frame
    (Protocol.Error { Protocol.code = Protocol.Overloaded; detail })

(* [Unix.select] fails with [EINVAL] on any descriptor at or past
   FD_SETSIZE (1024), which would stop the loop for every client.  A
   connection accepted past this bound is refused with one typed
   [Overloaded] frame instead.  The listener and the stop pipe must sit
   below it too; [start] checks. *)
let max_conn_fd = 1000

let refused = overloaded "too many connections; closing"

(* On Unix a [file_descr] is the descriptor number. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

(* Header and CRC validation of each complete frame. *)
let m_scan_micros = Reg.histogram ~stable:false "serve.scan_micros"

(* {2 Connection output} *)

let release t conn n =
  conn.out_bytes <- conn.out_bytes - n;
  t.inflight <- t.inflight - n

let kill t conn =
  if not conn.dead then begin
    conn.dead <- true;
    release t conn conn.out_bytes;
    Queue.clear conn.outq;
    Session.close conn.session;
    close_quiet conn.fd
  end

let enqueue_raw t conn b =
  let len = Bytes.length b in
  Queue.add { chunk = b; off = 0 } conn.outq;
  conn.out_bytes <- conn.out_bytes + len;
  t.inflight <- t.inflight + len

(* The backpressure bound: a reply that would overflow the connection's
   queue or the global in-flight cap is replaced by one typed
   [Overloaded] frame (allowed past the caps — it is the close reason)
   and the connection stops reading and drains. *)
let send t conn f =
  if not (conn.dead || conn.closing) then begin
    let b =
      match f with
      | Protocol.Verdicts [] -> empty_verdicts
      | f -> Protocol.encode_frame f
    in
    let len = Bytes.length b in
    Reg.incr Session.m_frames_out;
    if
      conn.out_bytes + len > t.config.reply_queue_bytes
      || t.inflight + len > t.config.inflight_bytes
    then begin
      Reg.incr m_overloaded;
      enqueue_raw t conn (overloaded "reply queue bound exceeded; closing");
      conn.closing <- true
    end
    else enqueue_raw t conn b
  end

let rec flush_conn t conn =
  if not conn.dead then
    match Queue.peek_opt conn.outq with
    | None -> if conn.closing then kill t conn
    | Some entry -> (
        let remaining = Bytes.length entry.chunk - entry.off in
        match Unix.single_write conn.fd entry.chunk entry.off remaining with
        | n ->
            entry.off <- entry.off + n;
            release t conn n;
            if entry.off = Bytes.length entry.chunk then begin
              ignore (Queue.pop conn.outq);
              flush_conn t conn
            end
            (* partial write: the socket buffer is full, wait for
               writability *)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_conn t conn
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error _ -> kill t conn)

(* {2 Connection input} *)

(* Make [need] bytes addressable from [in_start] (compact, then grow).
   [scan_at] bounds [need] by [max_frame] + framing overhead — an
   oversized length field is rejected from the header alone, so the
   buffer never grows past the configured limit. *)
let ensure_capacity conn need =
  if conn.in_start > 0 && conn.in_start + need > Bytes.length conn.inbuf then begin
    Bytes.blit conn.inbuf conn.in_start conn.inbuf 0 conn.in_len;
    conn.in_start <- 0
  end;
  if need > Bytes.length conn.inbuf then begin
    let bigger = Bytes.create (max need (2 * Bytes.length conn.inbuf)) in
    Bytes.blit conn.inbuf conn.in_start bigger 0 conn.in_len;
    conn.in_start <- 0;
    conn.inbuf <- bigger
  end

let rec drain_frames t conn =
  if not (conn.dead || conn.closing) then
    let t0 = Session.now_micros () in
    match
      Protocol.scan_at ~max_frame:t.config.max_frame conn.inbuf
        ~pos:conn.in_start ~len:conn.in_len
    with
    | Protocol.Scan_need need -> ensure_capacity conn need
    | Protocol.Scan_fail e ->
        Session.send_error ~send:(send t conn) e.Protocol.code e.Protocol.detail;
        conn.closing <- true
    | Protocol.Scan_frame { tag; payload_pos; payload_len; next } ->
        Reg.observe m_scan_micros (Session.now_micros () - t0);
        Reg.incr Session.m_frames_in;
        let consumed = next - conn.in_start in
        (* Advance past the frame before handling it; the payload span
           stays valid because the buffer is only compacted on the next
           [Scan_need], after the handler returns. *)
        conn.in_start <- next;
        conn.in_len <- conn.in_len - consumed;
        let send = send t conn in
        let verdict =
          if tag = Protocol.branch_events_tag then
            Session.handle_events_span conn.session ~send conn.inbuf
              ~pos:payload_pos ~len:payload_len
          else
            match
              Protocol.decode_span tag conn.inbuf ~pos:payload_pos
                ~len:payload_len
            with
            | Ok f -> Session.handle conn.session ~send f
            | Error e ->
                Session.send_error ~send e.Protocol.code e.Protocol.detail;
                `Close
        in
        (match verdict with
        | `Continue -> ()
        | `Close -> conn.closing <- true);
        if conn.in_len = 0 then conn.in_start <- 0;
        drain_frames t conn

let on_readable t conn =
  (* Read until EAGAIN (or a modest per-wake budget, for fairness),
     draining complete frames as they appear. *)
  let budget = ref (256 * 1024) in
  let continue_ = ref true in
  while (not (conn.dead || conn.closing)) && !continue_ && !budget > 0 do
    if conn.in_start + conn.in_len = Bytes.length conn.inbuf then
      ensure_capacity conn (conn.in_len + 1);
    let off = conn.in_start + conn.in_len in
    let room = Bytes.length conn.inbuf - off in
    match Unix.read conn.fd conn.inbuf off room with
    | 0 ->
        (* EOF.  Mid-frame bytes left in the buffer are a truncated
           stream — same typed error as the blocking reader. *)
        continue_ := false;
        if conn.in_len > 0 then
          Session.send_error ~send:(send t conn) Protocol.Truncated
            "connection closed mid-frame";
        conn.closing <- true
    | n ->
        conn.last_active <- Unix.gettimeofday ();
        budget := !budget - n;
        conn.in_len <- conn.in_len + n;
        drain_frames t conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue_ := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> kill t conn
  done

(* {2 The loop} *)

let adopt t fd =
  if fd_number fd > max_conn_fd then begin
    Reg.incr m_overloaded;
    (try
       Unix.set_nonblock fd;
       ignore (Unix.single_write fd refused 0 (Bytes.length refused))
     with Unix.Unix_error _ -> ());
    close_quiet fd
  end
  else begin
    (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
    let conn =
      {
        fd;
        session =
          Session.create ?peer_fetch:t.peer_fetch ~store:t.store ~cache:t.cache
            ();
        inbuf = Bytes.create 65536;
        in_start = 0;
        in_len = 0;
        outq = Queue.create ();
        out_bytes = 0;
        last_active = Unix.gettimeofday ();
        closing = false;
        dead = false;
      }
    in
    t.conns <- conn :: t.conns
  end

let rec accept_all t =
  match Unix.accept t.fd with
  | cfd, _ ->
      adopt t cfd;
      accept_all t
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_all t
  | exception Unix.Unix_error _ -> ()

let scan_timeouts t =
  if t.config.session_timeout > 0. then begin
    let now = Unix.gettimeofday () in
    List.iter
      (fun conn ->
        if
          (not conn.dead)
          && now -. conn.last_active > t.config.session_timeout
        then
          if conn.closing then kill t conn
          else begin
            Session.send_error ~send:(send t conn) Protocol.Timeout
              "session timed out waiting for a frame";
            conn.closing <- true
          end)
      t.conns
  end

let reap t =
  t.conns <-
    List.filter
      (fun c ->
        if c.dead then false
        else if c.closing && Queue.is_empty c.outq then begin
          kill t c;
          false
        end
        else true)
      t.conns

let serve_loop t =
  while not (Atomic.get t.stop_flag) do
    let rds =
      t.fd :: t.stop_r
      :: List.filter_map
           (fun c -> if c.dead || c.closing then None else Some c.fd)
           t.conns
    in
    let wrs =
      List.filter_map
        (fun c -> if (not c.dead) && c.out_bytes > 0 then Some c.fd else None)
        t.conns
    in
    (* [stop] wakes the select through the stop pipe, so without an
       idle timeout to police the loop can sleep until something
       happens. *)
    let tmo = if t.config.session_timeout > 0. then 0.25 else -1. in
    (match Unix.select rds wrs [] tmo with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
    | rd, wr, _ ->
        List.iter
          (fun c -> if (not c.dead) && List.mem c.fd wr then flush_conn t c)
          t.conns;
        List.iter
          (fun c -> if (not c.dead) && List.mem c.fd rd then on_readable t c)
          t.conns;
        (* Optimistic flush: most replies fit the socket buffer and
           never wait for a writability round-trip. *)
        List.iter
          (fun c -> if (not c.dead) && c.out_bytes > 0 then flush_conn t c)
          t.conns;
        (* Reap before accepting, so descriptors freed by closed
           sessions are reused instead of pushing new ones towards
           [max_conn_fd]. *)
        reap t;
        if List.mem t.fd rd then accept_all t);
    scan_timeouts t;
    reap t
  done;
  (* Shutdown: one best-effort flush so already-queued replies reach
     well-behaved clients, then close everything. *)
  List.iter (fun c -> flush_conn t c) t.conns;
  List.iter (fun c -> kill t c) t.conns;
  t.conns <- []

(* {2 Lifecycle} *)

(* Reclaim [path] for our listener, but only if it holds a *stale*
   socket: a non-socket file is someone else's data and a socket a
   connect succeeds on is a live server — unlinking either would
   silently hijack it, so both raise [EADDRINUSE] instead. *)
let claim_socket_path path =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      close_quiet probe;
      if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path));
      (try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let start ?(config = default_config) (addr : address) =
  Protocol.ignore_sigpipe ();
  let fd, sock_path =
    match addr with
    | `Unix path ->
        claim_socket_path path;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        (fd, Some path)
    | `Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        (fd, None)
  in
  Unix.listen fd 64;
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  let store =
    match config.store_dir with
    | Some dir -> Some (Store.create ~dir)
    | None -> Store.ambient ()
  in
  (* Built once per server: the fleet client's ring agrees with every
     other shard's by construction (same topology).  The fetch runs
     inside the loop handling the Load_key — blocking, but strictly on
     the cold-miss path, where the alternative is a client-side
     recompile costing far more; the fetch socket's receive timeout
     bounds the wait when two shards fetch from each other at once. *)
  let peer_fetch =
    Option.map
      (fun p ->
        let fc =
          Fleet_client.create ~max_frame:config.max_frame
            ~backoff:p.peer_backoff p.peer_topology
        in
        fun key ->
          match Fleet_client.fetch_artifact ~exclude:p.peer_self fc key with
          | Ok bytes -> Ok (Bytes.to_string bytes)
          | Error e -> Error e)
      config.peers
  in
  let stop_r, stop_w = Unix.pipe () in
  if fd_number fd > max_conn_fd || fd_number stop_r > max_conn_fd then begin
    List.iter close_quiet [ fd; stop_r; stop_w ];
    raise (Unix.Unix_error (Unix.EMFILE, "Server.start", "select limit"))
  end;
  let t =
    {
      config;
      store;
      peer_fetch;
      cache = Lru.create ~slots:config.cache_slots;
      fd;
      sock_path;
      stop_flag = Atomic.make false;
      stop_r;
      stop_w;
      conns = [];
      inflight = 0;
      loop_domain = None;
    }
  in
  t.loop_domain <- Some (Domain.spawn (fun () -> serve_loop t));
  t

let port t =
  match Unix.getsockname t.fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | Unix.ADDR_UNIX _ -> None

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    (* The stop pipe makes shutdown prompt even when the loop is parked
       in a select with no timeout. *)
    (try ignore (Unix.write_substring t.stop_w "!" 0 1)
     with Unix.Unix_error _ -> ());
    Option.iter Domain.join t.loop_domain;
    t.loop_domain <- None;
    close_quiet t.stop_r;
    close_quiet t.stop_w;
    close_quiet t.fd;
    match t.sock_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ()
  end

let with_server ?config addr f =
  let t = start ?config addr in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
