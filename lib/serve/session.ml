(* Per-connection protocol logic of the {!Server} event loop:
   the frame state machine, the serve.* metrics, the typed error
   classification, and the [Branch_events] path, which walks a payload
   span straight into staging and the checker without a frame value.

   Stable counters are sums of per-session deterministic work, so their
   totals are independent of how concurrent sessions interleave — the
   concurrency determinism test relies on that.  Timeouts and cache
   traffic depend on timing and session interleaving (LRU eviction
   order), so they are unstable; so is the latency histogram. *)

module System = Ipds_core.System
module Checker = Ipds_core.Checker
module Store = Ipds_artifact.Store
module Reg = Ipds_obs.Registry

let m_sessions = Reg.counter "serve.sessions"
let m_frames_in = Reg.counter "serve.frames_in"
let m_frames_out = Reg.counter "serve.frames_out"
let m_traces = Reg.counter "serve.traces"
let m_events = Reg.counter "serve.events"
let m_branches = Reg.counter "serve.branches"
let m_alarms = Reg.counter "serve.alarms"
let m_protocol_errors = Reg.counter "serve.protocol_errors"
let m_state_errors = Reg.counter "serve.state_errors"
let m_artifact_fetches = Reg.counter "serve.artifact_fetches"
let m_artifact_pushes = Reg.counter "serve.artifact_pushes"
let m_artifact_verify_rejects = Reg.counter "serve.artifact_verify_rejects"
let m_artifact_peer_loads = Reg.counter ~stable:false "serve.artifact_peer_loads"
let m_timeouts = Reg.counter ~stable:false "serve.timeouts"
let m_batch_micros = Reg.histogram ~stable:false "serve.batch_micros"
let m_decode_micros = Reg.histogram ~stable:false "serve.decode_micros"

let now_micros () = int_of_float (Unix.gettimeofday () *. 1e6)

exception State_violation of string

type t = {
  store : Store.t option;
  cache : System.t Lru.t;
  peer_fetch : (string -> (string, Protocol.err) result) option;
  mutable system : System.t option;
  mutable images : Ipds_core.Image.t array;
      (* the loaded system's images in function-table order: call words
         resolve to these once per load, never by name *)
  mutable checker : Checker.t option;
  mutable tr_events : int;
  mutable tr_branches : int;
  mutable tr_alarms : int;
  mutable staged : int array;
      (* a whole [Branch_events] span is walked into this before any of
         it touches the checker, so a payload that turns out malformed
         mid-batch mutates nothing *)
}

let create ?peer_fetch ~store ~cache () =
  Reg.incr m_sessions;
  {
    store;
    cache;
    peer_fetch;
    system = None;
    images = [||];
    checker = None;
    tr_events = 0;
    tr_branches = 0;
    tr_alarms = 0;
    staged = Array.make 1024 0;
  }

(* The cache key of an inline image: the server and routing clients
   must derive it identically.  SHA-256 so the key is
   a collision-resistant content address, like store keys. *)
let image_key image = "img:" ^ Sha256.hex_string image

(* Full verification of untrusted container bytes (a pushed artifact or
   one fetched from a peer): the whole-file digest, complete decode and
   structural validation of every flat image.  Anything less would let
   a forged frame publish unservable — or wrong — tables. *)
let verify_image bytes =
  match Ipds_artifact.Artifact.of_bytes bytes with
  | sys -> (
      match
        List.iter
          (fun (_, (i : System.func_info)) ->
            Ipds_core.Image.validate i.System.image)
          sys.System.funcs
      with
      | () -> Ok sys
      | exception Invalid_argument m -> Error m)
  | exception Ipds_artifact.Artifact.Corrupt m -> Error m

let send_error ~send code detail =
  (match code with
  | Protocol.Bad_state -> Reg.incr m_state_errors
  | Protocol.Timeout -> Reg.incr m_timeouts
  | Protocol.Server_error | Protocol.Overloaded -> ()
  | _ -> Reg.incr m_protocol_errors);
  send (Protocol.Error { Protocol.code; detail })

(* A session abandoned mid-trace still owes its checker deltas. *)
let close t =
  match t.checker with
  | Some ck ->
      Checker.flush ck;
      t.checker <- None
  | None -> ()

let loaded t ~send ~name (sys : System.t) ~cached =
  t.system <- Some sys;
  t.images <- Array.of_list (List.map (fun (_, i) -> i.System.image) sys.System.funcs);
  send
    (Protocol.Loaded
       { name; cached; funcs = Array.of_list (List.map fst sys.System.funcs) });
  `Continue

let handle t ~send (f : Protocol.frame) =
  let send_err = send_error ~send in
  match f with
  | Protocol.Load_key key -> (
      match t.store with
      | None ->
          send_err Protocol.Unknown_artifact "no artifact store configured";
          `Close
      | Some store -> (
          let miss () =
            Error
              (Protocol.Unknown_artifact, "no loadable artifact for key " ^ key)
          in
          (* local store first; a cold shard then warms itself from a
             fleet peer — the fetched image is untrusted until
             [verify_image] passes, and only then published locally so
             the next miss is a plain store hit *)
          let load () =
            match Store.load_system store key with
            | Some sys -> Ok sys
            | None -> (
                match t.peer_fetch with
                | None -> miss ()
                | Some peer -> (
                    match peer key with
                    | Error (_ : Protocol.err) -> miss ()
                    | Ok image -> (
                        let bytes = Bytes.of_string image in
                        match verify_image bytes with
                        | Error m ->
                            Reg.incr m_artifact_verify_rejects;
                            Error
                              ( Protocol.Corrupt_artifact,
                                "peer artifact failed verification: " ^ m )
                        | Ok sys ->
                            Reg.incr m_artifact_peer_loads;
                            ignore (Store.publish_image store key bytes);
                            Ok sys)))
          in
          match Lru.fetch t.cache key load with
          | `Hit sys -> loaded t ~send ~name:key sys ~cached:true
          | `Loaded sys -> loaded t ~send ~name:key sys ~cached:false
          | `Err (code, detail) ->
              send_err code detail;
              `Close))
  | Protocol.Load_image { name; image } -> (
      let key = image_key image in
      let load () =
        match Ipds_artifact.Artifact.of_bytes (Bytes.of_string image) with
        | sys -> Ok sys
        | exception Ipds_artifact.Artifact.Corrupt m ->
            Error (Protocol.Corrupt_artifact, m)
      in
      match Lru.fetch t.cache key load with
      | `Hit sys -> loaded t ~send ~name sys ~cached:true
      | `Loaded sys -> loaded t ~send ~name sys ~cached:false
      | `Err (code, detail) ->
          send_err code detail;
          `Close)
  | Protocol.Begin_trace -> (
      match (t.system, t.checker) with
      | None, _ ->
          send_err Protocol.Bad_state "Begin_trace before an artifact is loaded";
          `Close
      | Some _, Some _ ->
          send_err Protocol.Bad_state "a trace is already active";
          `Close
      | Some sys, None ->
          t.checker <- Some (System.new_checker sys);
          t.tr_events <- 0;
          t.tr_branches <- 0;
          t.tr_alarms <- 0;
          Reg.incr m_traces;
          send Protocol.Trace_started;
          `Continue)
  | Protocol.Branch_events _ ->
      (* the server routes every [Branch_events] span to
         [handle_events_span] before a frame value exists *)
      send_err Protocol.Server_error "Branch_events frame outside the span path";
      `Close
  | Protocol.End_trace -> (
      match t.checker with
      | None ->
          send_err Protocol.Bad_state "End_trace outside an active trace";
          `Close
      | Some ck ->
          (* the stream need not drain the call stack; flush pending
             counter deltas before dropping the checker *)
          Checker.flush ck;
          t.checker <- None;
          send
            (Protocol.Trace_summary
               {
                 Protocol.total_events = t.tr_events;
                 total_branches = t.tr_branches;
                 total_alarms = t.tr_alarms;
               });
          `Continue)
  | Protocol.Fetch_artifact key -> (
      match t.store with
      | None ->
          send_err Protocol.Unknown_artifact "no artifact store configured";
          `Close
      | Some _ when not (Store.valid_key key) ->
          send_err Protocol.Unknown_artifact
            ("malformed artifact key " ^ String.escaped key);
          `Close
      | Some store -> (
          match Store.fetch_image store key with
          | `Image bytes ->
              Reg.incr m_artifact_fetches;
              send
                (Protocol.Artifact_data { key; image = Bytes.to_string bytes });
              `Continue
          | `Miss ->
              send_err Protocol.Unknown_artifact
                ("no artifact stored for key " ^ key);
              `Close
          | `Corrupt reason -> send_err Protocol.Corrupt_artifact reason; `Close))
  | Protocol.Push_artifact { key; image } -> (
      match t.store with
      | None ->
          send_err Protocol.Unknown_artifact "no artifact store configured";
          `Close
      | Some _ when not (Store.valid_key key) ->
          send_err Protocol.Unknown_artifact
            ("malformed artifact key " ^ String.escaped key);
          `Close
      | Some store -> (
          let bytes = Bytes.of_string image in
          match verify_image bytes with
          | Error m ->
              Reg.incr m_artifact_verify_rejects;
              send_err Protocol.Corrupt_artifact
                ("pushed artifact failed verification: " ^ m);
              `Close
          | Ok (_ : System.t) -> (
              match Store.publish_image store key bytes with
              | `Stored ->
                  Reg.incr m_artifact_pushes;
                  send (Protocol.Artifact_pushed { key; stored = true });
                  `Continue
              | `Duplicate ->
                  Reg.incr m_artifact_pushes;
                  send (Protocol.Artifact_pushed { key; stored = false });
                  `Continue
              | `Collision ->
                  send_err Protocol.Corrupt_artifact
                    ("a different valid artifact already holds key " ^ key);
                  `Close
              | `Failed m ->
                  send_err Protocol.Server_error ("publish failed: " ^ m);
                  `Close)))
  | Protocol.Loaded _ | Protocol.Trace_started | Protocol.Verdicts _
  | Protocol.Trace_summary _ | Protocol.Artifact_data _
  | Protocol.Artifact_pushed _ | Protocol.Error _ ->
      send_err Protocol.Bad_state "server-to-client frame from a client";
      `Close

(* {2 The [Branch_events] path}

   Walk a CRC-validated payload span into [staged] with
   {!Protocol.walk_events} (the one event decoder, which validates the
   whole batch first), then feed the staged words through the state
   guards, counters and verdict collection.  Calls resolve to images
   through the function table sent in [Loaded]; the extern index is
   skipped, as [Replay.feed] skips undefined callees. *)

let feed t ck n =
  let images = t.images in
  let nfuncs = Array.length images in
  for i = 0 to n - 1 do
    let w = Array.unsafe_get t.staged i in
    let op = w land 3 and arg = w asr 2 in
    if op = Protocol.op_call then begin
      if arg < nfuncs then ignore (Checker.on_call_img ck images.(arg))
    end
    else begin
      if Checker.depth ck = 0 then
        raise
          (State_violation
             (if op = Protocol.op_ret then "Ret with an empty checker stack"
              else "Branch with an empty checker stack"));
      if op = Protocol.op_ret then ignore (Checker.on_return ck)
      else begin
        t.tr_branches <- t.tr_branches + 1;
        ignore (Checker.on_branch ck ~pc:arg ~taken:(op = Protocol.op_taken))
      end
    end
  done

let handle_events_span t ~send buf ~pos ~len =
  match t.checker with
  | Some ck -> (
      let t0 = now_micros () in
      match
        Protocol.walk_events ~nfuncs:(Array.length t.images) buf ~pos ~len t.staged
      with
      | Error m ->
          send_error ~send Protocol.Malformed m;
          `Close
      | Ok (staged, n) -> (
          t.staged <- staged;
          let t1 = now_micros () in
          Reg.observe m_decode_micros (t1 - t0);
          let alarms_before = Checker.alarm_count ck in
          let branches_before = t.tr_branches in
          match feed t ck n with
          | () ->
              t.tr_events <- t.tr_events + n;
              Reg.add m_events n;
              Reg.add m_branches (t.tr_branches - branches_before);
              let fresh = Checker.alarms_since ck alarms_before in
              let n_fresh = List.length fresh in
              t.tr_alarms <- t.tr_alarms + n_fresh;
              Reg.add m_alarms n_fresh;
              Reg.observe m_batch_micros (now_micros () - t1);
              send (Protocol.Verdicts fresh);
              `Continue
          | exception State_violation m ->
              send_error ~send Protocol.Bad_state m;
              `Close))
  | None ->
      send_error ~send Protocol.Bad_state "Branch_events outside an active trace";
      `Close
