(* Property/fuzz tests for the verdict-server wire protocol: frame
   encode→decode round trips, and the corruption contract — every
   byte flip and every truncation of a valid frame stream must yield a
   typed protocol error, never an exception (mirrors test_artifact's
   corruption style). *)

module P = Ipds_serve.Protocol
module Core = Ipds_core
module Q = QCheck2.Gen

let ( let* ) = Q.bind
let check = Alcotest.(check bool)

(* ---------- generators ---------- *)

let status : Core.Status.t Q.t =
  Q.oneofl [ Core.Status.Taken; Core.Status.Not_taken; Core.Status.Unknown ]

let verdict : Core.Checker.alarm Q.t =
  let* fname = Q.oneofl [ "main"; "aux"; "" ] in
  let* branch_pc = Gen.wide_int in
  let* expected = status in
  let* actual_taken = Q.bool in
  let* sequence = Q.int_range 0 100_000 in
  Q.return { Core.Checker.fname; branch_pc; expected; actual_taken; sequence }

let error_code : P.error_code Q.t =
  Q.oneofl
    [
      P.Bad_magic; P.Bad_version; P.Bad_crc; P.Oversized; P.Truncated;
      P.Unknown_frame; P.Malformed; P.Bad_state; P.Unknown_artifact;
      P.Corrupt_artifact; P.Timeout; P.Server_error; P.Overloaded;
      P.Unavailable;
    ]

let binary_string : string Q.t =
  let* n = Q.int_range 0 64 in
  Q.string_size ~gen:(Q.char_range '\000' '\255') (Q.return n)

let frame : P.frame Q.t =
  Q.oneof
    [
      Q.map (fun k -> P.Load_key k) binary_string;
      (let* name = Q.oneofl [ "telnetd"; "x"; "" ] in
       let* image = binary_string in
       Q.return (P.Load_image { name; image }));
      Q.return P.Begin_trace;
      Q.map
        (fun ws -> P.Branch_events (Array.of_list ws))
        (Q.list_size (Q.int_range 0 40) Gen.event_word);
      Q.return P.End_trace;
      (let* name = Q.oneofl [ "telnetd"; "" ] in
       let* cached = Q.bool in
       let* funcs = Q.array_size (Q.int_range 0 6) (Q.oneofl [ "main"; "aux"; "" ]) in
       Q.return (P.Loaded { name; cached; funcs }));
      Q.return P.Trace_started;
      Q.map (fun vs -> P.Verdicts vs) (Q.list_size (Q.int_range 0 20) verdict);
      (let* total_events = Gen.wide_int in
       let* total_branches = Q.int_range 0 max_int in
       let* total_alarms = Q.int_range 0 1000 in
       Q.return
         (P.Trace_summary { P.total_events; total_branches; total_alarms }));
      (let* code = error_code in
       let* detail = Q.oneofl [ "bad thing"; ""; "x" ] in
       Q.return (P.Error { P.code; detail }));
      Q.map (fun k -> P.Fetch_artifact k) binary_string;
      (let* key = binary_string in
       let* image = binary_string in
       Q.return (P.Push_artifact { key; image }));
      (let* key = binary_string in
       let* image = binary_string in
       Q.return (P.Artifact_data { key; image }));
      (let* key = binary_string in
       let* stored = Q.bool in
       Q.return (P.Artifact_pushed { key; stored }));
    ]

let frames : P.frame list Q.t = Q.list_size (Q.int_range 1 8) frame

let encode_stream fs =
  String.concat "" (List.map (fun f -> Bytes.to_string (P.encode_frame f)) fs)

(* ---------- round trip ---------- *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"frame stream encode/decode round trip" ~count:300
    frames (fun fs ->
      match P.decode_string (encode_stream fs) with
      | Ok fs' -> fs' = fs
      | Error _ -> false)

(* ---------- corruption: every byte flip is a typed error ---------- *)

(* A fixed, representative stream: every client/server frame kind. *)
let sample_stream () =
  encode_stream
    [
      P.Load_key "telnetd-key";
      P.Load_image { name = "telnetd"; image = "\x00\x01binary\xff" };
      P.Begin_trace;
      P.Branch_events
        [|
          P.event_word ~op:P.op_taken ~arg:0x1010;
          P.event_word ~op:P.op_call ~arg:1;
          P.event_word ~op:P.op_ret ~arg:0;
          P.event_word ~op:P.op_not_taken ~arg:(-7);
        |];
      P.End_trace;
      P.Loaded { name = "telnetd"; cached = true; funcs = [| "main"; "aux" |] };
      P.Trace_started;
      P.Verdicts
        [
          {
            Core.Checker.fname = "main";
            branch_pc = 0x1010;
            expected = Core.Status.Not_taken;
            actual_taken = true;
            sequence = 7;
          };
        ];
      P.Trace_summary { P.total_events = 3; total_branches = 1; total_alarms = 1 };
      P.Error { P.code = P.Timeout; detail = "session timed out" };
      P.Fetch_artifact "abcdef0123456789";
      P.Push_artifact { key = "abcdef0123456789"; image = "IPDS\x00raw\xfe" };
      P.Artifact_data { key = "abcdef0123456789"; image = "IPDS\x00raw\xfe" };
      P.Artifact_pushed { key = "abcdef0123456789"; stored = true };
    ]

let test_every_byte_flip_is_typed_error () =
  let s = sample_stream () in
  let decoded_ok = match P.decode_string s with Ok _ -> true | Error _ -> false in
  check "pristine stream decodes" true decoded_ok;
  List.iter
    (fun mask ->
      String.iteri
        (fun i _ ->
          let bad = Bytes.of_string s in
          Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor mask));
          (* never an exception, never a silent pass: the CRC covers
             header and payload, magic/version are checked first, so
             every single-byte flip must surface as a typed error *)
          match P.decode_string (Bytes.to_string bad) with
          | Ok _ ->
              Alcotest.failf "flip 0x%02x at byte %d went undetected" mask i
          | Error e -> (
              match e.P.code with
              | P.Bad_magic | P.Bad_version | P.Bad_crc | P.Oversized
              | P.Truncated | P.Unknown_frame | P.Malformed ->
                  ()
              | other ->
                  Alcotest.failf "flip 0x%02x at byte %d: unexpected code %s"
                    mask i
                    (P.error_code_to_string other))
          | exception e ->
              Alcotest.failf "flip 0x%02x at byte %d raised %s" mask i
                (Printexc.to_string e))
        s)
    [ 0x01; 0x40; 0x80 ]

(* ---------- truncation: boundary cuts are fine, mid-frame cuts are
   typed Truncated errors ---------- *)

let test_every_truncation_is_typed () =
  let fs =
    [
      P.Load_key "k";
      P.Begin_trace;
      P.Branch_events [| P.event_word ~op:P.op_taken ~arg:1 |];
      P.End_trace;
    ]
  in
  let encoded = List.map (fun f -> Bytes.to_string (P.encode_frame f)) fs in
  let s = String.concat "" encoded in
  (* cumulative end offsets: a cut at one of these lands exactly between
     frames and must decode to the whole frames before it *)
  let boundaries =
    List.rev
      (List.fold_left
         (fun acc e ->
           match acc with
           | off :: _ -> (off + String.length e) :: acc
           | [] -> assert false)
         [ 0 ] encoded)
  in
  for len = 0 to String.length s do
    let prefix = String.sub s 0 len in
    match P.decode_string prefix with
    | Ok fs' ->
        if not (List.mem len boundaries) then
          Alcotest.failf "cut at %d (mid-frame) decoded Ok" len;
        let complete =
          List.length (List.filter (fun b -> b <> 0 && b <= len) boundaries)
        in
        check
          (Printf.sprintf "boundary cut at %d decodes the whole frames" len)
          true
          (fs' = List.filteri (fun i _ -> i < complete) fs)
    | Error e ->
        if List.mem len boundaries then
          Alcotest.failf "cut at %d (boundary) errored: %s" len
            (P.error_code_to_string e.P.code);
        check
          (Printf.sprintf "mid-frame cut at %d is Truncated" len)
          true (e.P.code = P.Truncated)
    | exception e ->
        Alcotest.failf "truncation to %d raised %s" len (Printexc.to_string e)
  done

let prop_truncation_never_raises =
  QCheck2.Test.make ~name:"random truncation: typed result, never an exception"
    ~count:200
    (let* fs = frames in
     let s = encode_stream fs in
     let* len = Q.int_range 0 (String.length s) in
     Q.return (String.sub s 0 len))
    (fun prefix ->
      match P.decode_string prefix with
      | Ok _ | Error _ -> true)

(* ---------- hand-crafted damage the flip test cannot reach ---------- *)

(* Rebuild a frame with an arbitrary tag/payload but a VALID CRC, to
   exercise the paths behind the checksum. *)
let forge ?(version = P.version) ~tag payload =
  let plen = String.length payload in
  let b = Bytes.create (P.header_bytes + plen + P.trailer_bytes) in
  Bytes.blit_string P.magic 0 b 0 4;
  Bytes.set b 4 (Char.chr version);
  Bytes.set b 5 (Char.chr tag);
  for i = 0 to 3 do
    Bytes.set b (6 + i) (Char.chr ((plen lsr (8 * i)) land 0xFF))
  done;
  Bytes.blit_string payload 0 b P.header_bytes plen;
  let crc = Ipds_serve.Crc32.bytes b ~pos:0 ~len:(P.header_bytes + plen) in
  for i = 0 to 3 do
    Bytes.set b (P.header_bytes + plen + i) (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  Bytes.to_string b

(* Regression for the multicore-safety fix in Crc32: the lookup table
   used to be a top-level [lazy], and concurrent [Lazy.force] from
   several domains could raise CamlinternalLazy.Undefined.  Hammer the
   table from many domains at once and check every result agrees. *)
let test_crc_domain_stress () =
  let module Crc = Ipds_serve.Crc32 in
  let payload = Bytes.init 8192 (fun i -> Char.chr ((i * 131 + 17) land 0xff)) in
  let domains =
    List.init 8 (fun d ->
        Domain.spawn (fun () ->
            List.init 50 (fun i ->
                Crc.bytes payload ~pos:(d + i) ~len:(4096 + d + i))))
  in
  let per_domain = List.map Domain.join domains in
  let reference d =
    List.init 50 (fun i -> Crc.bytes payload ~pos:(d + i) ~len:(4096 + d + i))
  in
  Alcotest.(check bool) "all domains agree with sequential reference" true
    (List.for_all2 (fun d got -> got = reference d)
       (List.init 8 Fun.id) per_domain);
  (* and the table is the IEEE one: the standard check value *)
  Alcotest.(check int) "check value" 0xCBF43926
    (Crc.bytes (Bytes.of_string "123456789") ~pos:0 ~len:9)

let expect_code name code s =
  match P.decode_string s with
  | Error e -> Alcotest.(check string) name (P.error_code_to_string code) (P.error_code_to_string e.P.code)
  | Ok _ -> Alcotest.failf "%s: decoded Ok" name
  | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)

let test_crafted_damage () =
  (* unknown tag, valid CRC *)
  expect_code "unknown tag" P.Unknown_frame (forge ~tag:9 "");
  (* known tag, valid CRC, garbage payload: the string length varint
     never ends *)
  expect_code "malformed payload" P.Malformed (forge ~tag:1 "\xff\xff\xff\xff\xff\xff\xff\xff");
  (* a string length past the bytes left *)
  expect_code "string length lies" P.Malformed (forge ~tag:1 "\x05ab");
  (* empty payload where one is required *)
  expect_code "short payload" P.Malformed (forge ~tag:4 "");
  (* a return word with a nonzero argument is an unknown op *)
  expect_code "unknown op" P.Malformed
    (forge ~tag:4 ("\x01" ^ String.make 1 (Char.chr (P.event_word ~op:P.op_ret ~arg:5))));
  (* ten varint bytes: one more than 63 bits need *)
  expect_code "over-long varint" P.Malformed
    (forge ~tag:4 ("\x01" ^ String.make 9 '\x80' ^ "\x00"));
  (* more events announced than payload bytes left *)
  expect_code "event count past payload" P.Malformed (forge ~tag:4 "\x05\x08");
  (* a negative callee index (the word's 63-bit pattern, 9 bytes) *)
  expect_code "negative callee index" P.Malformed
    (Bytes.to_string
       (P.encode_frame (P.Branch_events [| P.event_word ~op:P.op_call ~arg:(-1) |])));
  (* bytes after the last field *)
  expect_code "trailing bytes" P.Malformed (forge ~tag:4 "\x01\x08\x00");
  expect_code "trailing bytes (control frame)" P.Malformed (forge ~tag:3 "\x00");
  (* a bool byte other than 0 or 1 *)
  expect_code "bad bool" P.Malformed (forge ~tag:21 "\x01k\x02");
  (* oversized length honoured before the CRC is even checked *)
  (let big = P.encode_frame (P.Load_image { name = "n"; image = String.make 4096 'x' }) in
   match P.decode_string ~max_frame:64 (Bytes.to_string big) with
   | Error e -> check "oversized is typed" true (e.P.code = P.Oversized)
   | Ok _ -> Alcotest.fail "oversized frame decoded Ok"
   | exception e -> Alcotest.failf "oversized raised %s" (Printexc.to_string e));
  (* wrong version byte *)
  (let s = Bytes.of_string (forge ~tag:3 "") in
   Bytes.set s 4 (Char.chr (P.version + 1));
   expect_code "version skew" P.Bad_version (Bytes.to_string s))

(* A v1 peer: a well-formed v1 frame (v1 payloads were bit-packed; a
   [Begin_trace] has none) must be refused as a version mismatch before
   anything looks at its payload. *)
let test_v1_frame_bad_version () =
  expect_code "v1 Begin_trace" P.Bad_version (forge ~version:1 ~tag:3 "");
  expect_code "v1 Branch_events" P.Bad_version
    (forge ~version:1 ~tag:P.branch_events_tag "\x00\x00\x00\x00\x00\x00\x00\x00")

(* A decoder configured with a limit above the default must accept
   frames that fill it: string/list length bounds follow the effective
   max_frame, not the compile-time constant (they used to be pinned to
   the default, so raising --max-frame silently didn't work). *)
let test_raised_max_frame () =
  let image = String.make (P.default_max_frame + 16) 'y' in
  let big = Bytes.to_string (P.encode_frame (P.Load_image { name = "n"; image })) in
  (match P.decode_string ~max_frame:(2 * P.default_max_frame) big with
  | Ok [ P.Load_image { image = got; _ } ] ->
      check "above-default payload intact" true (String.equal got image)
  | Ok _ -> Alcotest.fail "unexpected decode shape"
  | Error e ->
      Alcotest.failf "raised limit still rejected: %s"
        (P.error_code_to_string e.P.code)
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e));
  match P.decode_string big with
  | Error e -> check "default limit still oversized" true (e.P.code = P.Oversized)
  | Ok _ -> Alcotest.fail "default limit decoded an oversized frame"
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)

(* ---------- artifact fetch/push against a live server ---------- *)

(* The fetch/push frames carry untrusted input onto the server's disk,
   so this section exercises the whole trust boundary end-to-end:
   verified bytes round trip, forged or colliding bytes are refused
   with typed errors, and malformed keys never reach path
   construction. *)

module Serve = Ipds_serve
module W = Ipds_workloads.Workloads

let tmp_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ipds-serve-%s-%d-%d" name (Unix.getpid ()) (Random.bits ()))

let with_store_server f =
  let dir = tmp_path "store" in
  Unix.mkdir dir 0o755;
  let sock = tmp_path "sock" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      Serve.Server.with_server
        ~config:{ Serve.Server.default_config with store_dir = Some dir }
        (`Unix sock)
        (fun _server ->
          let client = Serve.Client.connect (`Unix sock) in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close client)
            (fun () -> f client)))

let expect_err name code = function
  | Error (e : P.err) ->
      Alcotest.(check string)
        name
        (P.error_code_to_string code)
        (P.error_code_to_string e.P.code)
  | Ok _ -> Alcotest.failf "%s: expected %s, got Ok" name (P.error_code_to_string code)

let test_push_fetch_roundtrip () =
  with_store_server (fun client ->
      let image =
        Ipds_artifact.Artifact.to_bytes
          (Core.System.cached_build (W.program (W.find "telnetd")))
      in
      let key = "e2e-roundtrip-key" in
      (match Serve.Client.push_artifact client ~key image with
      | Ok stored -> check "first push stores" true stored
      | Error e -> Alcotest.failf "push failed: %s" e.P.detail);
      (match Serve.Client.push_artifact client ~key image with
      | Ok stored -> check "identical re-push is a duplicate" false stored
      | Error e -> Alcotest.failf "re-push failed: %s" e.P.detail);
      (match Serve.Client.fetch_artifact client key with
      | Ok got -> check "fetched bytes identical" true (Bytes.equal got image)
      | Error e -> Alcotest.failf "fetch failed: %s" e.P.detail);
      (* the pushed artifact is immediately loadable for checking *)
      match Serve.Client.load_key client key with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "load_key after push failed: %s" e.P.detail)

let test_push_rejects_forgery () =
  with_store_server (fun client ->
      let image =
        Ipds_artifact.Artifact.to_bytes
          (Core.System.cached_build (W.program (W.find "crond")))
      in
      (* flip one payload byte: the container digest no longer matches,
         so the server must refuse to publish — typed, not an exception,
         and nothing lands in the store *)
      let forged = Bytes.copy image in
      let i = Bytes.length forged / 2 in
      Bytes.set forged i (Char.chr (Char.code (Bytes.get forged i) lxor 0x20));
      expect_err "forged push rejected" P.Corrupt_artifact
        (Serve.Client.push_artifact client ~key:"e2e-forged-key" forged);
      (* session closed after the typed error; reconnect happens via a
         fresh with_store_server in the next test.  Garbage that is not
         even a container is rejected the same way. *)
      ())

let test_push_rejects_garbage_and_collision () =
  with_store_server (fun client ->
      expect_err "garbage push rejected" P.Corrupt_artifact
        (Serve.Client.push_artifact client ~key:"e2e-garbage-key"
           (Bytes.of_string "not a container at all")));
  with_store_server (fun client ->
      let img w =
        Ipds_artifact.Artifact.to_bytes
          (Core.System.cached_build (W.program (W.find w)))
      in
      let key = "e2e-collision-key" in
      (match Serve.Client.push_artifact client ~key (img "telnetd") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "seed push failed: %s" e.P.detail);
      expect_err "colliding push rejected" P.Corrupt_artifact
        (Serve.Client.push_artifact client ~key (img "httpd")))

let test_fetch_typed_misses () =
  with_store_server (fun client ->
      expect_err "unknown key" P.Unknown_artifact
        (Serve.Client.fetch_artifact client "e2e-absent-key"));
  (* a malformed key must be a typed error from the boundary check,
     never an Invalid_argument escaping path construction *)
  List.iter
    (fun key ->
      with_store_server (fun client ->
          expect_err
            (Printf.sprintf "malformed key %S" key)
            P.Unknown_artifact
            (Serve.Client.fetch_artifact client key)))
    [ "x"; ""; "../../etc/passwd"; ".hidden" ]

(* ---------- the event walker against a live server ---------- *)

(* Damage only the server can judge (a callee index needs the loaded
   function table) and damage behind a valid CRC must each end the
   session with one typed [Malformed] error, never an exception. *)
let test_walker_damage_at_server () =
  let image =
    Bytes.to_string
      (Ipds_artifact.Artifact.to_bytes
         (Core.System.cached_build (W.program (W.find "telnetd"))))
  in
  let sock = tmp_path "walker-sock" in
  Serve.Server.with_server (`Unix sock) (fun _server ->
      let session () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let r = P.reader fd in
        P.output_frame fd (P.Load_image { name = "telnetd"; image });
        let funcs =
          match P.input_frame r with
          | P.In_frame (P.Loaded { funcs; _ }) -> funcs
          | _ -> Alcotest.fail "expected Loaded"
        in
        P.output_frame fd P.Begin_trace;
        (match P.input_frame r with
        | P.In_frame P.Trace_started -> ()
        | _ -> Alcotest.fail "expected Trace_started");
        (fd, r, Array.length funcs)
      in
      let reply name bytes =
        let fd, r, _ = session () in
        ignore (Unix.write_substring fd bytes 0 (String.length bytes));
        let got = P.input_frame r in
        Unix.close fd;
        match got with
        | P.In_frame f -> f
        | _ -> Alcotest.failf "%s: no reply frame" name
      in
      let expect_malformed name bytes =
        match reply name bytes with
        | P.Error e ->
            Alcotest.(check string) name "malformed" (P.error_code_to_string e.P.code)
        | _ -> Alcotest.failf "%s: expected a malformed error" name
      in
      let nfuncs =
        let fd, _, n = session () in
        Unix.close fd;
        n
      in
      check "telnetd has a function table" true (nfuncs > 0);
      let events ws = Bytes.to_string (P.encode_frame (P.Branch_events ws)) in
      (* the extern marker is the table length: accepted and skipped *)
      (match reply "extern call" (events [| P.event_word ~op:P.op_call ~arg:nfuncs |]) with
      | P.Verdicts [] -> ()
      | _ -> Alcotest.fail "extern call: expected empty verdicts");
      expect_malformed "callee index past the table"
        (events [| P.event_word ~op:P.op_call ~arg:(nfuncs + 1) |]);
      expect_malformed "unknown op" (events [| P.event_word ~op:P.op_ret ~arg:3 |]);
      expect_malformed "over-long varint"
        (forge ~tag:P.branch_events_tag ("\x01" ^ String.make 9 '\xff' ^ "\x01"));
      expect_malformed "event count past payload" (forge ~tag:P.branch_events_tag "\x7f\x08"))

(* v2 is meant to be compact: at the default batch size a whole
   [Branch_events] frame (header and CRC included) must average at most
   4 bytes per event on benign runs of every built-in workload. *)
let test_wire_size () =
  let module M = Ipds_machine in
  List.iter
    (fun (w : W.t) ->
      let system = W.system w in
      let index = P.func_index (Array.of_list (List.map fst system.Core.System.funcs)) in
      let batch = P.Batch.create () in
      let events = ref 0 and bytes = ref 0 in
      let seal () =
        if P.Batch.length batch > 0 then begin
          let _, _, len = P.Batch.seal batch in
          bytes := !bytes + len;
          P.Batch.clear batch
        end
      in
      let sink e =
        match P.word_of_event ~index e with
        | Some word ->
            incr events;
            P.Batch.add batch word;
            if P.Batch.length batch >= Serve.Client.default_batch then seal ()
        | None -> ()
      in
      ignore
        (M.Interp.run (W.program w)
           {
             M.Interp.default_config with
             max_steps = 60_000;
             inputs = M.Input_script.random ~seed:2006 ();
             record_trace = false;
             sink = Some sink;
           });
      seal ();
      let per_event = float_of_int !bytes /. float_of_int (max 1 !events) in
      check (Printf.sprintf "%s: events recorded" w.W.name) true (!events > 0);
      if per_event > 4.0 then
        Alcotest.failf "%s: %.2f wire bytes per event (%d events), above 4" w.W.name
          per_event !events)
    W.all

(* ---------- client ---------- *)

(* A connect that fails (a down fleet shard, start-up polling) must
   close the socket it opened. *)
let test_connect_no_fd_leak () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let absent = tmp_path "absent-sock" in
    let before = open_fds () in
    for _ = 1 to 200 do
      match Serve.Client.connect (`Unix absent) with
      | c ->
          Serve.Client.close c;
          Alcotest.fail "connect to an absent socket succeeded"
      | exception Unix.Unix_error _ -> ()
    done;
    Alcotest.(check int) "open descriptors unchanged" before (open_fds ())
  end

let () =
  Random.self_init ();
  Alcotest.run "serve-protocol"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "crafted damage" `Quick test_crafted_damage;
          Alcotest.test_case "raised max_frame" `Quick test_raised_max_frame;
          Alcotest.test_case "v1 frame is bad-version" `Quick test_v1_frame_bad_version;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "every byte flip" `Quick test_every_byte_flip_is_typed_error;
          Alcotest.test_case "every truncation" `Quick test_every_truncation_is_typed;
          QCheck_alcotest.to_alcotest prop_truncation_never_raises;
        ] );
      ( "event-walker",
        [
          Alcotest.test_case "damage at the server" `Quick test_walker_damage_at_server;
          Alcotest.test_case "wire size on the workloads" `Quick test_wire_size;
        ] );
      ( "client",
        [ Alcotest.test_case "failed connects leak no fd" `Quick test_connect_no_fd_leak ] );
      ( "crc32",
        [ Alcotest.test_case "domain stress" `Quick test_crc_domain_stress ] );
      ( "artifact-sharing",
        [
          Alcotest.test_case "push/fetch round trip" `Quick
            test_push_fetch_roundtrip;
          Alcotest.test_case "forged push rejected" `Quick
            test_push_rejects_forgery;
          Alcotest.test_case "garbage + collision rejected" `Quick
            test_push_rejects_garbage_and_collision;
          Alcotest.test_case "typed fetch misses" `Quick test_fetch_typed_misses;
        ] );
    ]
