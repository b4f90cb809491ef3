(* Client side of the verdict protocol: lockstep request/reply RPCs plus
   a streaming [trace] helper whose [sink] plugs straight into
   [Interp.config.sink], so one interpreter run can be checked locally
   and remotely in the same process. *)

module Event = Ipds_machine.Event

type address = [ `Unix of string | `Tcp of string * int ]

type t = {
  fd : Unix.file_descr;
  reader : Protocol.reader;
  mutable closed : bool;
  mutable index : string -> int;
      (* callee name -> index in the last [Loaded] function table *)
  batch : Protocol.Batch.t;  (* the reusable [Branch_events] frame *)
}

(* Resolution failures must stay inside [connect]'s documented
   [Unix_error] contract — gethostbyname's bare [Not_found] would skip
   the caller's friendly connect-error path. *)
let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      let addrs =
        try
          Unix.getaddrinfo host ""
            [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
        with Unix.Unix_error _ | Not_found -> []
      in
      let inet = function
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } -> Some a
        | _ -> None
      in
      match List.find_map inet addrs with
      | Some a -> a
      | None -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "resolve", host)))

(* A failed connect must not leak the socket: fleet clients probing a
   down shard and start-up polling loops connect many times over. *)
let connect ?(max_frame = Protocol.default_max_frame) (addr : address) =
  Protocol.ignore_sigpipe ();
  let domain, sockaddr =
    match addr with
    | `Unix path -> (Unix.PF_UNIX, fun () -> Unix.ADDR_UNIX path)
    | `Tcp (host, port) -> (Unix.PF_INET, fun () -> Unix.ADDR_INET (resolve host, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (sockaddr ()) with
  | () -> ()
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e);
  {
    fd;
    reader = Protocol.reader ~max_frame fd;
    closed = false;
    index = Protocol.func_index [||];
    batch = Protocol.Batch.create ();
  }

let set_timeout t seconds = Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO seconds

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let rpc_with t write expect =
  match write () with
  | () -> (
      match Protocol.input_frame t.reader with
      | Protocol.In_frame (Protocol.Error e) -> Error e
      | Protocol.In_frame f -> (
          match expect f with
          | Some v -> Ok v
          | None ->
              Error
                {
                  Protocol.code = Protocol.Malformed;
                  detail = "unexpected reply frame";
                })
      | Protocol.In_eof ->
          Error
            {
              Protocol.code = Protocol.Truncated;
              detail = "server closed the connection";
            }
      | Protocol.In_error e -> Error e)
  | exception Unix.Unix_error (e, _, _) ->
      Error
        { Protocol.code = Protocol.Server_error; detail = Unix.error_message e }

let rpc t frame expect = rpc_with t (fun () -> Protocol.output_frame t.fd frame) expect

(* Keep the loaded artifact's function table: call events are sent as
   indices into it. *)
let loaded t = function
  | Protocol.Loaded { cached; funcs; _ } ->
      t.index <- Protocol.func_index funcs;
      Some cached
  | _ -> None

let load_key t key = rpc t (Protocol.Load_key key) (loaded t)

let load_image t ~name image =
  rpc t (Protocol.Load_image { name; image = Bytes.to_string image }) (loaded t)

let begin_trace t =
  rpc t Protocol.Begin_trace (function
    | Protocol.Trace_started -> Some ()
    | _ -> None)

let verdicts = function Protocol.Verdicts vs -> Some vs | _ -> None

let send_events t evs =
  let words = List.filter_map (Protocol.word_of_event ~index:t.index) evs in
  rpc t (Protocol.Branch_events (Array.of_list words)) verdicts

let end_trace t =
  rpc t Protocol.End_trace (function
    | Protocol.Trace_summary s -> Some s
    | _ -> None)

let fetch_artifact t key =
  rpc t (Protocol.Fetch_artifact key) (function
    | Protocol.Artifact_data { key = k; image } when String.equal k key ->
        Some (Bytes.of_string image)
    | _ -> None)

let push_artifact t ~key image =
  rpc t
    (Protocol.Push_artifact { key; image = Bytes.to_string image })
    (function
      | Protocol.Artifact_pushed { key = k; stored } when String.equal k key ->
          Some stored
      | _ -> None)

type trace = {
  sink : Event.t -> unit;
  finish :
    unit ->
    (Ipds_core.Checker.alarm list * Protocol.summary, Protocol.err) result;
}

(* Only checker-relevant events go on the wire, each appended as one
   word straight into the connection's reusable batch frame; the server
   replies with the alarms the batch raised, one Verdicts frame per
   batch.  A transport or protocol error mid-trace latches: the sink
   goes quiet and [finish] reports the first error. *)
let default_batch = 1024

let trace ?(batch = default_batch) t =
  if batch < 1 then
    invalid_arg (Printf.sprintf "Client.trace: batch must be >= 1 (got %d)" batch);
  match begin_trace t with
  | Error e -> Error e
  | Ok () ->
      let b = t.batch in
      Protocol.Batch.clear b;
      let verdicts_rev = ref [] in
      let failed = ref None in
      let flush () =
        if Protocol.Batch.length b > 0 then
          match rpc_with t (fun () -> Protocol.output_batch t.fd b) verdicts with
          | Ok vs -> verdicts_rev := List.rev_append vs !verdicts_rev
          | Error e ->
              Protocol.Batch.clear b;
              failed := Some e
      in
      let sink (e : Event.t) =
        if Option.is_none !failed then
          match Protocol.word_of_event ~index:t.index e with
          | Some w ->
              Protocol.Batch.add b w;
              if Protocol.Batch.length b >= batch then flush ()
          | None -> ()
      in
      let finish () =
        if Option.is_none !failed then flush ();
        match !failed with
        | Some e -> Error e
        | None -> (
            match end_trace t with
            | Ok s -> Ok (List.rev !verdicts_rev, s)
            | Error e -> Error e)
      in
      Ok { sink; finish }
