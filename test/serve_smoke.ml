(* End-to-end smoke test of the streaming verdict server (@serve-smoke):

   A. every server workload, tampered and untampered, checked remotely
      over a temp Unix socket — the verdict stream must be byte-identical
      to an in-process System.new_checker run; artifact loads are
      exercised cold and warm (LRU + store key path);
   B. robustness: garbage, truncated, oversized, corrupt, out-of-state
      and silent sessions all get typed error replies, are counted in
      the metrics, and leave the server serving;
   C. concurrency determinism: N concurrent client domains against the
      one serve loop, run twice, produce per-session verdicts equal to
      in-process checking and a byte-identical stable metrics section;
   D. lifecycle robustness: clients that vanish before reading replies
      must not kill the server (SIGPIPE), stop must return promptly with
      silent and mid-trace clients even under --timeout 0 (the stop
      pipe, not a poll period, bounds shutdown), the socket path
      must never hijack a non-socket file or a live server's socket (but
      must reclaim a stale one), and an unresolvable host must surface
      as the typed connect error;
   E. backpressure: a client that streams events without reading replies
      past the per-connection reply-queue bound (or the global in-flight
      cap) gets exactly one typed Overloaded error as the final frame
      before EOF, and the server keeps serving other sessions; so does a
      crowd of connections whose descriptors pass select's FD_SETSIZE;
   F. hostile content behind a valid digest: an artifact whose code
      section carries a literal past the int range, re-wrapped with a
      fresh SHA-256, gets a typed corrupt-artifact reply as Load_image
      and as Push_artifact, and the same server then serves a normal
      session. *)

module P = Ipds_serve.Protocol
module Server = Ipds_serve.Server
module Client = Ipds_serve.Client
module W = Ipds_workloads.Workloads
module Core = Ipds_core
module M = Ipds_machine
module A = Ipds_artifact.Artifact
module Obj = Ipds_artifact.Object_file
module Store = Ipds_artifact.Store
module Reg = Ipds_obs.Registry

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "SERVE SMOKE FAIL: %s\n%!" msg;
      exit 1)
    fmt

let section title = Printf.printf "--- %s ---\n%!" title

let ok = function
  | Ok v -> v
  | Error (e : P.err) ->
      fail "unexpected remote error %s: %s" (P.error_code_to_string e.P.code)
        e.P.detail

let cval name = Reg.counter_value (Reg.counter name)

let temp_path suffix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ipds-serve-smoke-%d%s" (Unix.getpid ()) suffix)

let rec chunks n = function
  | [] -> []
  | xs ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: tl -> take (k - 1) (x :: acc) tl
      in
      let batch, rest = take n [] xs in
      batch :: chunks n rest

(* ---------- local reference runs ---------- *)

type local_run = {
  events : M.Event.t list;  (** checker-relevant, in commit order *)
  alarms : Core.Checker.alarm list;
  branches : int;
}

let local_run system program ~seed ~tamper =
  let checker = Core.System.new_checker system in
  let events = ref [] in
  let o =
    M.Interp.run program
      {
        M.Interp.default_config with
        max_steps = 60_000;
        inputs = M.Input_script.random ~seed ();
        checker = Some checker;
        tamper;
        record_trace = false;
        sink =
          Some
            (fun (e : M.Event.t) ->
              match e.M.Event.kind with
              | M.Event.Call _ | M.Event.Ret | M.Event.Branch _ ->
                  events := e :: !events
              | _ -> ());
      }
  in
  { events = List.rev !events; alarms = Core.Checker.alarms checker; branches = o.M.Interp.branches }

(* A tampered run for the workload's own vulnerability class; prefer a
   seed whose injection raises alarms so the equivalence check covers
   non-empty verdict streams. *)
let tampered_run system program w =
  let model =
    match W.tamper_model w with
    | `Stack_overflow -> M.Tamper.Stack_overflow
    | `Arbitrary_write -> M.Tamper.Arbitrary_write
  in
  let run_with seed =
    local_run system program ~seed
      ~tamper:
        (Some
           {
             M.Tamper.at_step = 40;
             site = M.Tamper.Mem_write { model; value = 0 };
             seed;
           })
  in
  let rec search seed best =
    if seed > 14 then best
    else
      let r = run_with seed in
      if r.alarms <> [] then r else search (seed + 1) best
  in
  search 1 (run_with 0)

(* ---------- remote session driving ---------- *)

let remote_check client run =
  ok (Client.begin_trace client);
  let verdicts = ref [] in
  List.iter
    (fun batch -> verdicts := !verdicts @ ok (Client.send_events client batch))
    (chunks 200 run.events);
  let summary = ok (Client.end_trace client) in
  (!verdicts, summary)

let render = List.map P.verdict_to_string

let assert_equivalent ~what run (verdicts, (summary : P.summary)) =
  if render verdicts <> render run.alarms then begin
    Printf.eprintf "local:\n%s\nremote:\n%s\n"
      (String.concat "\n" (render run.alarms))
      (String.concat "\n" (render verdicts));
    fail "%s: remote verdicts differ from in-process checking" what
  end;
  if verdicts <> run.alarms then
    fail "%s: verdict records differ structurally" what;
  if summary.P.total_events <> List.length run.events then
    fail "%s: summary events %d, sent %d" what summary.P.total_events
      (List.length run.events);
  if summary.P.total_branches <> run.branches then
    fail "%s: summary branches %d, local %d" what summary.P.total_branches
      run.branches;
  if summary.P.total_alarms <> List.length run.alarms then
    fail "%s: summary alarms %d, local %d" what summary.P.total_alarms
      (List.length run.alarms)

(* ---------- phase A: all workloads, cold + warm, tampered + not ---------- *)

let phase_a () =
  section "A: remote = local for every workload (cold/warm artifact cache)";
  let sock = temp_path "-a.sock" in
  let store_dir = temp_path "-store" in
  let store = Store.create ~dir:store_dir in
  let config =
    { Server.default_config with cache_slots = 16; store_dir = Some store_dir }
  in
  let total_tampered_alarms = ref 0 in
  let misses0 = cval "serve.cache_misses" and hits0 = cval "serve.cache_hits" in
  Server.with_server ~config (`Unix sock) (fun _server ->
      List.iter
        (fun (w : W.t) ->
          let system = W.system w in
          let program = W.program w in
          let image = A.to_bytes system in
          let untampered = local_run system program ~seed:2006 ~tamper:None in
          let tampered = tampered_run system program w in
          total_tampered_alarms := !total_tampered_alarms + List.length tampered.alarms;
          (* cold: first session ships the image; the LRU must miss *)
          let c = Client.connect (`Unix sock) in
          if ok (Client.load_image c ~name:w.W.name image) then
            fail "%s: expected a cold LRU load" w.W.name;
          assert_equivalent ~what:(w.W.name ^ "/untampered") untampered
            (remote_check c untampered);
          assert_equivalent ~what:(w.W.name ^ "/tampered") tampered
            (remote_check c tampered);
          Client.close c;
          (* warm: a new session for the same image must hit the LRU *)
          let c = Client.connect (`Unix sock) in
          if not (ok (Client.load_image c ~name:w.W.name image)) then
            fail "%s: expected a warm LRU hit" w.W.name;
          assert_equivalent ~what:(w.W.name ^ "/warm") tampered
            (remote_check c tampered);
          Client.close c;
          (* the store-key path: publish, load cold, then warm *)
          let key = "smoke-" ^ w.W.name in
          Store.publish_system store key system;
          let c = Client.connect (`Unix sock) in
          if ok (Client.load_key c key) then
            fail "%s: expected a cold store load" w.W.name;
          assert_equivalent ~what:(w.W.name ^ "/store") untampered
            (remote_check c untampered);
          Client.close c;
          let c = Client.connect (`Unix sock) in
          if not (ok (Client.load_key c key)) then
            fail "%s: expected a warm store hit" w.W.name;
          Client.close c)
        W.all);
  let n = List.length W.all in
  let misses = cval "serve.cache_misses" - misses0
  and hits = cval "serve.cache_hits" - hits0 in
  (* per workload: image cold (miss), image warm (hit), key cold (miss),
     key warm (hit) *)
  if misses <> 2 * n then fail "LRU misses: %d, expected %d" misses (2 * n);
  if hits <> 2 * n then fail "LRU hits: %d, expected %d" hits (2 * n);
  if !total_tampered_alarms = 0 then
    fail "no tampered run raised any alarm across %d workloads" n;
  Printf.printf
    "A ok: %d workloads, %d tampered alarms total, LRU %d misses / %d hits\n%!"
    n !total_tampered_alarms misses hits;
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote store_dir)))

(* ---------- phase B: robustness ---------- *)

let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let read_error_code fd =
  let reader = P.reader fd in
  match P.input_frame reader with
  | P.In_frame (P.Error e) -> e.P.code
  | P.In_frame _ -> fail "expected an Error frame"
  | P.In_eof -> fail "connection closed without an Error frame"
  | P.In_error e ->
      fail "transport error instead of an Error frame: %s"
        (P.error_code_to_string e.P.code)

let expect_error what sock bytes code =
  let fd = raw_connect sock in
  let b = Bytes.of_string bytes in
  (* The server may reply and cut the session from the frame header
     alone (e.g. oversized) while we are still writing the body; its
     error reply is already in our receive buffer, so EPIPE here is
     fine — we can still read the verdict. *)
  (try
     ignore (Unix.write fd b 0 (Bytes.length b));
     Unix.shutdown fd Unix.SHUTDOWN_SEND
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN), _, _) -> ());
  let got = read_error_code fd in
  if got <> code then
    fail "%s: expected %s, got %s" what (P.error_code_to_string code)
      (P.error_code_to_string got);
  Unix.close fd

let phase_b () =
  section "B: malformed/oversized/stale input -> typed errors, no crash";
  let sock = temp_path "-b.sock" in
  let config =
    {
      Server.default_config with
      max_frame = 65_536;
      session_timeout = 1.0;
    }
  in
  let w = W.find "telnetd" in
  let system = W.system w in
  let image = A.to_bytes system in
  let proto0 = cval "serve.protocol_errors"
  and state0 = cval "serve.state_errors"
  and timeouts0 = cval "serve.timeouts" in
  Server.with_server ~config (`Unix sock) (fun _server ->
      (* garbage bytes *)
      expect_error "garbage" sock "this is not a frame at all" P.Bad_magic;
      (* valid frame cut mid-way *)
      let whole = Bytes.to_string (P.encode_frame (P.Load_key "k")) in
      expect_error "truncated" sock
        (String.sub whole 0 (String.length whole - 3))
        P.Truncated;
      (* flipped CRC byte *)
      let bad = Bytes.of_string whole in
      let last = Bytes.length bad - 1 in
      Bytes.set bad last (Char.chr (Char.code (Bytes.get bad last) lxor 0x40));
      expect_error "bad crc" sock (Bytes.to_string bad) P.Bad_crc;
      (* wrong protocol version *)
      let skewed = Bytes.of_string whole in
      Bytes.set skewed 4 (Char.chr (P.version + 1));
      expect_error "version skew" sock (Bytes.to_string skewed) P.Bad_version;
      (* payload larger than the server's max_frame *)
      let big =
        P.encode_frame
          (P.Load_image { name = "n"; image = String.make 100_000 'x' })
      in
      expect_error "oversized" sock (Bytes.to_string big) P.Oversized;
      (* state machine violations *)
      let expect_rpc_error what result code =
        match result with
        | Ok _ -> fail "%s: expected %s" what (P.error_code_to_string code)
        | Error (e : P.err) ->
            if e.P.code <> code then
              fail "%s: expected %s, got %s" what
                (P.error_code_to_string code)
                (P.error_code_to_string e.P.code)
      in
      let c = Client.connect (`Unix sock) in
      expect_rpc_error "trace before load" (Client.begin_trace c) P.Bad_state;
      Client.close c;
      let c = Client.connect (`Unix sock) in
      expect_rpc_error "events outside trace" (Client.send_events c []) P.Bad_state;
      Client.close c;
      (* batch validation is client-side and precedes any frame, so it
         must not disturb the server-side error counters below *)
      let c = Client.connect (`Unix sock) in
      (match Client.trace ~batch:0 c with
      | exception Invalid_argument _ -> ()
      | Ok _ | Error _ -> fail "trace ~batch:0: expected Invalid_argument");
      (match Client.trace ~batch:(-3) c with
      | exception Invalid_argument _ -> ()
      | Ok _ | Error _ -> fail "trace ~batch:-3: expected Invalid_argument");
      Client.close c;
      let c = raw_connect sock in
      P.output_frame c P.Trace_started;
      (if read_error_code c <> P.Bad_state then
         fail "server-to-client frame: expected bad-state");
      Unix.close c;
      (* artifact errors *)
      let c = Client.connect (`Unix sock) in
      expect_rpc_error "unknown key" (Client.load_key c "no-such-key")
        P.Unknown_artifact;
      Client.close c;
      let corrupt = Bytes.copy image in
      Bytes.set corrupt
        (Bytes.length corrupt / 2)
        (Char.chr (Char.code (Bytes.get corrupt (Bytes.length corrupt / 2)) lxor 0x40));
      let c = Client.connect (`Unix sock) in
      expect_rpc_error "corrupt image" (Client.load_image c ~name:"bad" corrupt)
        P.Corrupt_artifact;
      Client.close c;
      (* a silent session runs into the server-side timeout *)
      let fd = raw_connect sock in
      (if read_error_code fd <> P.Timeout then fail "expected a session timeout");
      Unix.close fd;
      (* and after all that abuse the server still serves *)
      let run = local_run system (W.program w) ~seed:2006 ~tamper:None in
      let c = Client.connect (`Unix sock) in
      if ok (Client.load_image c ~name:w.W.name image) then
        fail "post-abuse: expected a cold load";
      assert_equivalent ~what:"post-abuse" run (remote_check c run);
      Client.close c);
  let proto = cval "serve.protocol_errors" - proto0
  and state = cval "serve.state_errors" - state0
  and timeouts = cval "serve.timeouts" - timeouts0 in
  (* garbage, truncated, bad-crc, version-skew, oversized, unknown-key,
     corrupt-image *)
  if proto <> 7 then fail "protocol_errors: %d, expected 7" proto;
  if state <> 3 then fail "state_errors: %d, expected 3" state;
  if timeouts <> 1 then fail "timeouts: %d, expected 1" timeouts;
  Printf.printf "B ok: %d protocol errors, %d state errors, %d timeout — all typed\n%!"
    proto state timeouts

(* ---------- phase C: concurrency determinism ---------- *)

let phase_c () =
  section "C: N concurrent clients, two rounds: identical verdicts + stable metrics";
  (* precompute everything so the measured rounds do only protocol work *)
  let picks = [ "telnetd"; "wu-ftpd"; "xinetd" ] in
  let sessions =
    List.concat_map
      (fun name ->
        let w = W.find name in
        let system = W.system w in
        let program = W.program w in
        let image = A.to_bytes system in
        [
          (name, image, local_run system program ~seed:2006 ~tamper:None);
          (name, image, tampered_run system program w);
        ])
      picks
  in
  let round i =
    Reg.reset ();
    let sock = temp_path (Printf.sprintf "-c%d.sock" i) in
    let config = { Server.default_config with cache_slots = 16 } in
    let results =
      Server.with_server ~config (`Unix sock) (fun _server ->
          let domains =
            List.map
              (fun (name, image, run) ->
                Domain.spawn (fun () ->
                    let c = Client.connect (`Unix sock) in
                    Fun.protect
                      ~finally:(fun () -> Client.close c)
                      (fun () ->
                        ignore (ok (Client.load_image c ~name image));
                        let verdicts, summary = remote_check c run in
                        (name, render verdicts, summary))))
              sessions
          in
          List.map Domain.join domains)
    in
    let stable =
      Ipds_obs.Json.to_string (Reg.snapshot_json ~stability:`Stable ())
    in
    (results, stable)
  in
  let r1, s1 = round 1 in
  let r2, s2 = round 2 in
  List.iter2
    (fun (name, _, run) (_, verdicts, _) ->
      if verdicts <> render run.alarms then
        fail "%s: concurrent session verdicts differ from in-process checking"
          name)
    sessions r1;
  if r1 <> r2 then fail "per-session verdicts differ between the two rounds";
  if s1 <> s2 then begin
    Printf.eprintf "round 1: %s\nround 2: %s\n" s1 s2;
    fail "stable metrics differ between the two rounds"
  end;
  if String.length s1 <= 2 then fail "stable metrics are empty";
  (* sanity: the rounds really did serve traffic *)
  if cval "serve.sessions" <> List.length sessions then
    fail "sessions: %d, expected %d" (cval "serve.sessions")
      (List.length sessions);
  Printf.printf "C ok: %d concurrent sessions, verdicts and stable metrics byte-identical\n%!"
    (List.length sessions)

(* ---------- phase D: lifecycle robustness ---------- *)

let phase_d () =
  section "D: early disconnects, --timeout 0 shutdown, socket-path hygiene";
  let w = W.find "telnetd" in
  let system = W.system w in
  let image = A.to_bytes system in
  let run = local_run system (W.program w) ~seed:2006 ~tamper:None in
  (* D1: a client that fires requests and closes without ever reading a
     reply makes the server write into a closed peer.  With SIGPIPE
     ignored that is a per-session EPIPE; without it this whole test
     process (server domains included) would die here. *)
  let sock = temp_path "-d.sock" in
  Server.with_server (`Unix sock) (fun _server ->
      for _ = 1 to 3 do
        let fd = raw_connect sock in
        (try
           for _ = 1 to 5 do
             P.output_frame fd
               (P.Load_image { name = "rude"; image = Bytes.to_string image })
           done
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
        Unix.close fd
      done;
      (* give the workers a beat to hit the closed sockets *)
      Unix.sleepf 0.2;
      let c = Client.connect (`Unix sock) in
      ignore (ok (Client.load_image c ~name:w.W.name image));
      assert_equivalent ~what:"post-disconnect" run (remote_check c run);
      Client.close c);
  (* D2: with session_timeout = 0 a session has no idle policing and
     the loop parks in a select with no timeout; stop must still return
     promptly — the stop pipe bounds shutdown — with both a silent
     connection and a live mid-trace session open. *)
  let sock = temp_path "-d0.sock" in
  let config = { Server.default_config with session_timeout = 0. } in
  let open_fds = ref [] in
  let t0 = Unix.gettimeofday () in
  Server.with_server ~config (`Unix sock) (fun _server ->
      let fd = raw_connect sock in
      open_fds := fd :: !open_fds;
      let c = Client.connect (`Unix sock) in
      ignore (ok (Client.load_image c ~name:w.W.name image));
      let tr = ok (Client.trace ~batch:10 c) in
      List.iter tr.Client.sink (List.filteri (fun i _ -> i < 50) run.events);
      (* let the loop absorb both sessions and park in select *)
      Unix.sleepf 0.2);
  let elapsed = Unix.gettimeofday () -. t0 in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !open_fds;
  if elapsed > 10. then
    fail "stop with --timeout 0 and parked sessions took %.1fs" elapsed;
  (* D3: socket-path hygiene.  A regular file must never be unlinked... *)
  let precious = temp_path "-precious" in
  let oc = open_out precious in
  output_string oc "not a socket";
  close_out oc;
  (match Server.start (`Unix precious) with
  | server ->
      Server.stop server;
      fail "start hijacked a regular file at the socket path"
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
  (if (not (Sys.file_exists precious)) || In_channel.with_open_bin precious In_channel.input_all <> "not a socket"
   then fail "socket-path claim damaged an unrelated file");
  Sys.remove precious;
  (* ...nor a socket a live server still answers on... *)
  let sock = temp_path "-d3.sock" in
  Server.with_server (`Unix sock) (fun _server ->
      (match Server.start (`Unix sock) with
      | second ->
          Server.stop second;
          fail "second server hijacked a live socket"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
      (* the incumbent is unharmed *)
      let c = Client.connect (`Unix sock) in
      ignore (ok (Client.load_image c ~name:w.W.name image));
      Client.close c);
  (* ...but a stale socket file (no listener behind it) is reclaimed. *)
  let stale = temp_path "-stale.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  Server.with_server (`Unix stale) (fun _server ->
      let c = Client.connect (`Unix stale) in
      ignore (ok (Client.load_image c ~name:w.W.name image));
      Client.close c);
  (* D4: resolution failure keeps connect's Unix_error contract (the
     gethostbyname fallback used to leak a bare Not_found). *)
  (match Client.connect (`Tcp ("", 1)) with
  | c ->
      Client.close c;
      fail "connect to an unresolvable host succeeded"
  | exception Unix.Unix_error _ -> ()
  | exception e ->
      fail "unresolvable host raised %s, not Unix_error" (Printexc.to_string e));
  Printf.printf "D ok: SIGPIPE ignored, bounded stop, socket path safe, typed resolve\n%!"

(* ---------- phase E: backpressure / typed overload ---------- *)

(* Stream single-branch event frames at the server without ever reading
   a reply.  The replies back up through the socket into the server's
   bounded reply queue; once a bound would be exceeded the server must
   enqueue exactly one typed [Overloaded] error, stop reading, drain,
   and close — and keep serving everyone else. *)
let overload_round ~what config sock (prefix, branch_ev) w image run =
  let overloaded0 = cval "serve.overloaded" in
  Server.with_server ~config (`Unix sock) (fun _server ->
      let fd = raw_connect sock in
      let reader = P.reader fd in
      P.output_frame fd
        (P.Load_image { name = w.W.name; image = Bytes.to_string image });
      let index =
        match P.input_frame reader with
        | P.In_frame (P.Loaded { funcs; _ }) -> P.func_index funcs
        | _ -> fail "%s: expected Loaded" what
      in
      let words evs = Array.of_list (List.filter_map (P.word_of_event ~index) evs) in
      P.output_frame fd P.Begin_trace;
      (match P.input_frame reader with
      | P.In_frame P.Trace_started -> ()
      | _ -> fail "%s: expected Trace_started" what);
      (* establish the call depth the flooded branch executes at *)
      if prefix <> [] then begin
        P.output_frame fd (P.Branch_events (words prefix));
        match P.input_frame reader with
        | P.In_frame (P.Verdicts _) -> ()
        | _ -> fail "%s: expected Verdicts for the prefix" what
      end;
      (* flood, nonblocking: stop when the server stops reading (it is
         overloaded and closing) or after a generous frame budget *)
      let frame = P.encode_frame (P.Branch_events (words [ branch_ev ])) in
      let n = Bytes.length frame in
      Unix.set_nonblock fd;
      let sent = ref 0 and stalled = ref false in
      (try
         while !sent < 60_000 && not !stalled do
           let off = ref 0 in
           while !off < n && not !stalled do
             match Unix.write fd frame !off (n - !off) with
             | k -> off := !off + k
             | exception
                 Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
                 match Unix.select [] [ fd ] [] 1.0 with
                 | _, [], _ -> stalled := true
                 | _ -> ())
           done;
           if !off = n then incr sent
         done
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
         stalled := true);
      if not !stalled then
        fail "%s: server absorbed %d unread replies without shedding" what !sent;
      (* now drain: queued verdicts, then exactly one Overloaded, then EOF *)
      Unix.clear_nonblock fd;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let verdicts = ref 0 and got_overload = ref false and eof = ref false in
      while not !eof do
        match P.input_frame reader with
        | P.In_frame (P.Verdicts _) when not !got_overload -> incr verdicts
        | P.In_frame (P.Error e)
          when e.P.code = P.Overloaded && not !got_overload ->
            got_overload := true
        | P.In_frame f ->
            fail "%s: unexpected frame after %d verdicts (overload=%b): %s"
              what !verdicts !got_overload
              (match f with
              | P.Error e -> "Error " ^ P.error_code_to_string e.P.code
              | _ -> "non-error")
        | P.In_eof -> eof := true
        | P.In_error _ when !got_overload ->
            (* The server closes with our unread flood bytes still in its
               receive queue, which Linux surfaces to us as a reset
               rather than a clean EOF; the typed error frame above is
               already in hand, so this is the expected end of stream. *)
            eof := true
        | P.In_error e ->
            fail "%s: transport error while draining: %s" what
              (P.error_code_to_string e.P.code)
      done;
      Unix.close fd;
      if not !got_overload then
        fail "%s: connection closed without a typed Overloaded error" what;
      if !verdicts = 0 then
        fail "%s: no verdicts drained before the overload frame" what;
      (* the shed connection must not have poisoned the server *)
      let c = Client.connect (`Unix sock) in
      if not (ok (Client.load_image c ~name:w.W.name image)) then
        fail "%s: expected a warm cache hit after shedding" what;
      assert_equivalent ~what:(what ^ "/post-overload") run (remote_check c run);
      Client.close c;
      !verdicts)
  |> fun verdicts ->
  if cval "serve.overloaded" - overloaded0 < 1 then
    fail "%s: serve.overloaded did not count the shed" what;
  verdicts

(* [Unix.select] cannot watch a descriptor at or past FD_SETSIZE (1024).
   Open a crowd of idle connections to an in-process server (the test's
   client ends and the server's ends share one descriptor table), so
   the last ones are accepted past that limit: each must get one typed
   [Overloaded] refusal instead of stopping the loop, and once the crowd
   is gone a new client must be served. *)
let crowd = 1100

let fd_limit () =
  let ic = Unix.open_process_in "ulimit -n" in
  let line = try String.trim (input_line ic) with End_of_file -> "" in
  ignore (Unix.close_process_in ic);
  if line = "unlimited" then max_int
  else Option.value (int_of_string_opt line) ~default:0

let fd_bound_leg w image run =
  let limit = fd_limit () in
  if limit < (2 * crowd) + 256 then
    Printf.printf "E: fd-bound leg skipped: fd limit %d is too low for %d connections\n%!"
      limit crowd
  else begin
    let sock = temp_path "-e3.sock" in
    let overloaded0 = cval "serve.overloaded" in
    Server.with_server (`Unix sock) (fun _server ->
        let fds = List.init crowd (fun _ -> raw_connect sock) in
        let last = List.nth fds (crowd - 1) in
        Unix.setsockopt_float last Unix.SO_RCVTIMEO 5.0;
        (match P.input_frame (P.reader last) with
        | P.In_frame (P.Error e) when e.P.code = P.Overloaded -> ()
        | P.In_frame _ -> fail "fd bound: expected a typed Overloaded refusal"
        | P.In_eof -> fail "fd bound: connection closed without a typed refusal"
        | P.In_error e ->
            fail "fd bound: no refusal within 5 s (%s)"
              (P.error_code_to_string e.P.code));
        List.iter Unix.close fds;
        let c = Client.connect (`Unix sock) in
        Client.set_timeout c 5.0;
        ignore (ok (Client.load_image c ~name:w.W.name image));
        assert_equivalent ~what:"fd bound/after the crowd" run (remote_check c run);
        Client.close c);
    let refused = cval "serve.overloaded" - overloaded0 in
    if refused < 1 then fail "fd bound: serve.overloaded did not count a refusal";
    Printf.printf "E ok: %d of %d crowded connections refused with a typed Overloaded\n%!"
      refused crowd
  end

let phase_e () =
  section "E: unread replies past the bounds -> one typed Overloaded, then EOF";
  let w = W.find "telnetd" in
  let system = W.system w in
  let image = A.to_bytes system in
  let run = local_run system (W.program w) ~seed:2006 ~tamper:None in
  (* a real branch event from the reference run, fed after the call
     prefix that precedes it, keeps the flood state-valid: the branch
     replays at its genuine call depth, never the empty-stack guard *)
  let rec split_at_branch acc = function
    | [] -> fail "reference run has no branch event"
    | (e : M.Event.t) :: rest -> (
        match e.M.Event.kind with
        | M.Event.Branch _ -> (List.rev acc, e)
        | _ -> split_at_branch (e :: acc) rest)
  in
  let flood = split_at_branch [] run.events in
  (* per-connection reply-queue bound *)
  let v1 =
    overload_round ~what:"reply-queue"
      { Server.default_config with reply_queue_bytes = 1024 }
      (temp_path "-e1.sock") flood w image run
  in
  (* global in-flight cap, with a roomy per-connection bound *)
  let v2 =
    overload_round ~what:"inflight"
      { Server.default_config with inflight_bytes = 1024 }
      (temp_path "-e2.sock") flood w image run
  in
  Printf.printf
    "E ok: typed Overloaded after %d / %d unread verdict frames; server \
     survived both sheds\n\
     %!"
    v1 v2;
  fd_bound_leg w image run

(* ---------- phase F: hostile content behind a valid digest ---------- *)

(* The code section of [image] with its first integer literal (a digit
   run that does not continue an identifier) widened past the int
   range, re-wrapped with a fresh, valid whole-file digest. *)
let with_huge_literal image =
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_'
  in
  let is_digit c = c >= '0' && c <= '9' in
  let widen text =
    let n = String.length text in
    let rec start i =
      if i >= n then fail "code section has no integer literal"
      else if is_digit text.[i] && (i = 0 || not (is_ident text.[i - 1])) then i
      else start (i + 1)
    in
    let s = start 0 in
    let rec stop i = if i < n && is_digit text.[i] then stop (i + 1) else i in
    let e = stop s in
    String.sub text 0 s ^ "99999999999999999999" ^ String.sub text e (n - e)
  in
  Obj.to_bytes
    ~sections:
      (List.map
         (fun (name, payload) ->
           if name = "code" then
             (name, Bytes.of_string (widen (Bytes.to_string payload)))
           else (name, payload))
         (Obj.of_bytes image))

let phase_f () =
  section "F: a literal past the int range behind a valid digest -> typed";
  let sock = temp_path "-f.sock" in
  let store_dir = temp_path "-f-store" in
  let w = W.find "telnetd" in
  let system = W.system w in
  let image = A.to_bytes system in
  let hostile = with_huge_literal image in
  let run = local_run system (W.program w) ~seed:2006 ~tamper:None in
  let config = { Server.default_config with store_dir = Some store_dir } in
  let expect_corrupt what = function
    | Ok _ -> fail "%s: hostile artifact accepted" what
    | Error (e : P.err) when e.P.code = P.Corrupt_artifact -> ()
    | Error (e : P.err) ->
        fail "%s: expected corrupt-artifact, got %s (%s)" what
          (P.error_code_to_string e.P.code)
          e.P.detail
  in
  Server.with_server ~config (`Unix sock) (fun _server ->
      (* a dead serve loop would never answer: bound every wait *)
      let session f =
        let c = Client.connect (`Unix sock) in
        Client.set_timeout c 5.0;
        Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
      in
      session (fun c ->
          expect_corrupt "Load_image" (Client.load_image c ~name:"hostile" hostile));
      let key = "smoke-hostile" in
      session (fun c ->
          expect_corrupt "Push_artifact" (Client.push_artifact c ~key hostile));
      if Store.load_system (Store.create ~dir:store_dir) key <> None then
        fail "a rejected push reached the store";
      session (fun c ->
          if ok (Client.load_image c ~name:w.W.name image) then
            fail "post-hostile: expected a cold load";
          assert_equivalent ~what:"post-hostile" run (remote_check c run)));
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote store_dir)));
  print_endline "F ok: typed corrupt-artifact for both paths, server still serves"

let () =
  phase_a ();
  phase_b ();
  phase_c ();
  phase_d ();
  phase_e ();
  phase_f ();
  print_endline "serve smoke OK"
