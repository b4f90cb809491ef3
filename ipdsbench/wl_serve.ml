(* serve: a closed loop of monitored traces against a separate
   [ipds serve] process (its default single reactor) over a Unix
   socket, with one connection from this process per core the server
   leaves free ([jobs - 1], at least one).  It is a closed loop because
   a monitored program waits for its verdicts.

   One op is one trace: [Client.load_key] -> [Client.trace] -> the
   recorded events into the sink -> [finish].  Traces are recorded in
   set-up from interpreter runs of varied length; about a quarter are
   tampered runs, so verdict frames carry alarms.  Sessions draw
   programs with a skewed popularity from more artifacts than the
   server's 8 cache slots, so the hit ratio is neither 0 nor 1.

   Here client encode, the wire codec, the remote checker and store
   reads on cache misses do the work; analysis and the interpreter do
   none.  It also reads the artifact layer the compile workload writes. *)

open Bench
module Core = Ipds_core
module Store = Ipds_artifact.Store
module Client = Ipds_serve.Client
module W = Ipds_workloads.Workloads
module Interp = Ipds_machine.Interp
module Event = Ipds_machine.Event
module Tamper = Ipds_machine.Tamper

type artifact = { key : string; system : Core.System.t; bytes : int }

type trace = {
  art : artifact;
  events : Event.t list;  (** checker-relevant events, in commit order *)
  branches : int;
  expected : Core.Checker.alarm list;  (** the reference checker's alarms *)
}

type server = { pid : int; sock : string; metrics : string }

type state = {
  dir : string;
  store_dir : string;
  artifacts : artifact list;
  ops : trace array;  (** one round's sessions, in draw order *)
  server : server;
}

(* Servers still running, killed if the benchmark exits early. *)
let live = ref []

(* One monitored trace is one natural run of the program on a fresh
   seeded input script, so trace lengths come from the programs.  A
   tampered trace is the same run with a condition flip or an arbitrary
   memory write at a seeded step of its [20%, 100%) window, where the
   harness's attacks strike too. *)
let make_trace ~seed ~op art ~tampered =
  let program = art.system.Core.System.program in
  let rng = Random.State.make [| seed; op; 0x5e7e |] in
  let inputs = Random.State.bits rng land 0xffffff in
  let tamper =
    if not tampered then None
    else
      let o, _ = record program ~inputs ~tamper:None in
      let lo = max 1 (o.Interp.steps / 5) in
      let at_step = lo + Random.State.int rng (max 1 (o.Interp.steps - lo)) in
      let site =
        if Random.State.bool rng then Tamper.Cond_flip
        else Tamper.Mem_write { model = Tamper.Arbitrary_write; value = Random.State.int rng 256 }
      in
      Some { Tamper.at_step; site; seed = Random.State.bits rng }
  in
  let _, events = record program ~inputs ~tamper in
  { art; events; branches = count_branches events; expected = reference art.system events }

(* One round's sessions, drawn from the seed.  The artifact follows a
   Zipf popularity (s = 1, the usual model of request popularity,
   Breslau et al. 1999) over the artifacts in list order; every fourth
   session is a tampered run.  The ranking is fixed, not drawn: which
   program is the most popular sets the trace length of a third of the
   sessions, so a seeded ranking would move every latency figure from
   seed to seed by more than any code change worth measuring. *)
let draw_ops ~seed ~n artifacts =
  let rng = Random.State.make [| seed; 0x0b5 |] in
  let arts = Array.of_list artifacts in
  let k = Array.length arts in
  let weights = Array.init k (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  Array.init n (fun op ->
      let x = Random.State.float rng total in
      let rec pick r acc =
        if r = k - 1 || acc +. weights.(r) > x then r else pick (r + 1) (acc +. weights.(r))
      in
      make_trace ~seed ~op arts.(pick 0 0.) ~tampered:(op mod 4 = 3))

let ipds_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "ipds.exe")

let connect sock = Client.connect (`Unix sock)

(* Start [ipds serve] on a fresh socket with ambient IPDS_* settings
   removed, and wait until it accepts a connection. *)
let start_server ~dir ~store_dir =
  let sock = Filename.concat dir "s.sock" and metrics = Filename.concat dir "server-metrics.json" in
  let env =
    Array.of_list
      (List.filter
         (fun v -> not (String.length v >= 5 && String.sub v 0 5 = "IPDS_"))
         (Array.to_list (Unix.environment ())))
  in
  let log = Unix.openfile (Filename.concat dir "server.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let exe = ipds_exe () in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; sock; "--cache-dir"; store_dir; "--metrics-out"; metrics |]
      env null log log
  in
  Unix.close log;
  Unix.close null;
  live := pid :: !live;
  let deadline = now () +. 30. in
  let rec await () =
    match connect sock with
    | c -> Client.close c
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "ipds serve exited during start-up (see server.log)");
        if now () > deadline then failwith "ipds serve did not accept connections within 30 s";
        Unix.sleepf 0.01;
        await ()
  in
  await ();
  { pid; sock; metrics }

(* SIGTERM lets the server write its --metrics-out file on exit.
   Returns the server's peak RSS, read just before the signal. *)
let stop_server s =
  if not (List.mem s.pid !live) then 0.
  else begin
    let rss = peak_rss_mb (string_of_int s.pid) in
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () +. 20. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when now () > deadline ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
      | 0, _ ->
          Unix.sleepf 0.01;
          wait ()
      | _ -> ()
    in
    wait ();
    live := List.filter (( <> ) s.pid) !live;
    rss
  end

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* The 11 built-in servers and one firewall-policy member of 16 seeded
   rules: 12 artifacts for 8 cache slots, which under the Zipf
   popularity makes about a quarter of the sessions cache misses.  With
   the misses well short of half, the median session is a hit and the
   tail a miss; near half, the median would jump between the two from
   run to run.  A firewall member, unlike a generated program, keeps
   the artifact size and trace shape alike from seed to seed. *)
let programs ~seed ~tiny =
  let rules = if tiny then [ 8; 16 ] else [ 16 ] in
  List.map (fun (w : W.t) -> w.W.source) W.all
  @ List.map (fun nrules -> (W.firewall ~seed ~nrules).W.source) rules

let setup (config : config) ~rep () =
  let dir = Filename.concat config.work_dir (Printf.sprintf "serve-%d" rep) in
  let store_dir = Filename.concat dir "store" in
  mkdir_p dir;
  let store = Store.create ~dir:store_dir in
  let options = Ipds_correlation.Analysis.default_options in
  let artifacts =
    List.map
      (fun source ->
        let program = Ipds_opt.Promote.program (Ipds_minic.Minic.compile source) in
        let system = Core.System.build program in
        let key = Store.key ~source ~promote:true ~options in
        Store.publish_system store key system;
        { key; system; bytes = file_size (Store.path_of_key store key) })
      (programs ~seed:config.seed ~tiny:config.tiny)
  in
  let ops = draw_ops ~seed:config.seed ~n:(if config.tiny then 40 else 1200) artifacts in
  let server = start_server ~dir ~store_dir in
  { dir; store_dir; artifacts; ops; server }

let teardown st =
  ignore (stop_server st.server);
  rm_rf st.dir

type op_result = {
  index : int;  (** position in [ops] *)
  outcome : (bool * Core.Checker.alarm list, string) Stdlib.result;  (** cached?, alarms *)
  wall : float;
}

let error_text (e : Ipds_serve.Protocol.err) =
  Ipds_serve.Protocol.error_code_to_string e.code ^ ": " ^ e.detail

let one_op client ~op (tr : trace) =
  Trace.root ~op "serve.op" (fun parent ->
      match Trace.child ~parent ~op "serve.load" (fun () -> Client.load_key client tr.art.key) with
      | Error e -> Error (error_text e)
      | Ok cached -> (
          match Client.trace client with
          | Error e -> Error (error_text e)
          | Ok t -> (
              match
                Trace.child ~parent ~op "serve.stream" (fun () ->
                    List.iter t.Client.sink tr.events;
                    t.Client.finish ())
              with
              | Ok (alarms, _) -> Ok (cached, alarms)
              | Error e -> Error (error_text e))))

(* One connection's share of a round: ops are taken from a shared
   counter as soon as the previous one is answered.  A failed op drops
   the connection; the next op reconnects. *)
let worker st ~index ~next () =
  let client = ref None in
  let results = ref [] in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length st.ops then begin
      let op = (index * 100_000) + i in
      let outcome, wall =
        match
          let c =
            match !client with
            | Some c -> c
            | None ->
                let c = connect st.server.sock in
                client := Some c;
                c
          in
          one_op c ~op st.ops.(i)
        with
        | r -> r
        | exception e -> (Error (Printexc.to_string e), 0.)
      in
      (match outcome with
      | Error _ ->
          Option.iter Client.close !client;
          client := None
      | Ok _ -> ());
      results := { index = i; outcome; wall } :: !results;
      loop ()
    end
  in
  loop ();
  Option.iter Client.close !client;
  !results

let server_metrics path =
  match Jsonr.parse (In_channel.with_open_bin path In_channel.input_all) with
  | j -> Some j
  | exception _ -> None

(* The server's reactor needs a core of its own; more connections than
   the cores left over would measure the scheduler, not the server. *)
let connections (config : config) = max 1 (config.jobs - 1)

let run (config : config) =
  let reps = ref 1 in
  let conns = connections config in
  let st, setup0 = timed (setup config ~rep:1) in
  (* a repeat brings up its own store, traces and server beside the
     measured one, and takes them down at once *)
  let setup_again () =
    incr reps;
    let st, t = timed (setup config ~rep:!reps) in
    teardown st;
    t
  in
  let n_ops = Array.length st.ops in
  let untraced = ref [] and traced_walls = ref [] in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] and served = ref 0 in
  let local = Store.create ~dir:st.store_dir in
  let round ~warm ~index ~traced =
    let next = Atomic.make 0 in
    let results =
      let others =
        List.init (conns - 1) (fun _ -> Domain.spawn (worker st ~index ~next))
      in
      let mine = worker st ~index ~next () in
      List.concat (mine :: List.map Domain.join others)
    in
    let times = Array.make n_ops nan in
    List.iter
      (fun r ->
        incr attempted;
        let tr = st.ops.(r.index) in
        match r.outcome with
        | Error msg ->
            incr failed;
            problems := msg :: !problems
        | Ok (cached, alarms) ->
            incr served;
            if alarms <> tr.expected then begin
              incr failed;
              problems :=
                Printf.sprintf "op %d: remote alarms (%d) differ from the reference (%d)"
                  r.index (List.length alarms) (List.length tr.expected)
                :: !problems
            end
            else times.(r.index) <- r.wall *. 1e3;
            if traced then begin
              (* the same trace on a local flat checker, and the store
                 read the server paid on a cache miss *)
              let op = (index * 100_000) + r.index in
              let checker = Core.System.new_checker tr.art.system in
              ignore
                (Trace.root ~op "core.checker" (fun _ ->
                     Ipds_machine.Replay.feed_all checker
                       ~defined:(Core.System.mem tr.art.system) tr.events));
              if not cached then
                ignore
                  (Trace.root ~op "artifact.load" (fun _ -> Store.load_system local tr.art.key))
            end)
      results;
    if warm then ()
    else if traced then traced_walls := List.fold_left ( +. ) 0. (finite times) :: !traced_walls
    else untraced := times :: !untraced
  in
  Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
  (* one unmeasured round first, so the server's cache holds its
     steady-state working set before any op is timed *)
  round ~warm:true ~index:0 ~traced:false;
  let setup_s = median (setup0 :: rounds ~config ~setup_reps:9 ~setup_again (round ~warm:false)) in
  let server_rss = stop_server st.server in
  let sm = server_metrics st.server.metrics in
  let get keys = Jsonr.int (Option.bind sm (Jsonr.path keys)) in
  let rt name = get [ "runtime"; "metrics"; name ] in
  let hits = rt "serve.cache_hits" and misses = rt "serve.cache_misses" in
  let batch_sum = get [ "runtime"; "metrics"; "serve.batch_micros"; "sum" ] in
  if sm = None then problems := "server metrics file missing or unreadable" :: !problems;
  let op_ms = per_op_median !untraced in
  let per_op = finite op_ms in
  let tail_pct = tail_percentile ~round_samples:n_ops in
  let p50 = median per_op and tail = percentile tail_pct per_op in
  (* A closed loop keeps every connection busy with an op, so verdicts
     per second are the connections times the verdicts of the ops over
     their summed median times. *)
  let throughput =
    let verdicts = ref 0 and ms = ref 0. in
    Array.iteri
      (fun i t ->
        if not (Float.is_nan t) then begin
          verdicts := !verdicts + st.ops.(i).branches;
          ms := !ms +. t
        end)
      op_ms;
    float_of_int conns *. float_of_int !verdicts /. (!ms /. 1e3)
  in
  let artifact_kb =
    mean (List.map (fun a -> float_of_int a.bytes) st.artifacts) /. 1024.
  in
  let layers =
    if not config.traced then []
    else begin
      let t = Trace.totals () in
      let us name = self_ms t name *. 1e3 in
      (* the server's batch time is a whole-run total over every trace
         it served *)
      let server_batch_us = float_of_int batch_sum /. float_of_int (max 1 !served) in
      [
        m "serve.load_us" "us" (us "serve.load");
        m "serve.cache_hit_share" "ratio" (share hits (hits + misses));
        m "artifact.load_ms" "ms" (self_ms t "artifact.load");
        m "serve.stream_us" "us" (us "serve.stream");
        m "serve.server_batch_us" "us" server_batch_us;
        m "serve.client_side_us" "us" (us "serve.stream" -. server_batch_us);
        m "core.checker_us" "us" (us "core.checker");
        m "serve.overloaded" "count" (float_of_int (rt "serve.overloaded"));
        m "serve.protocol_errors" "count"
          (float_of_int (get [ "metrics"; "serve.protocol_errors" ]));
      ]
      @ reconcile t ~op:"serve.op" ~layers:[ "serve.load"; "serve.stream" ]
      @ [
          m "trace.overhead_pct" "%"
            (overhead_pct
               ~untraced:(List.map (fun r -> List.fold_left ( +. ) 0. (finite r)) !untraced)
               ~traced:!traced_walls);
        ]
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    setup_s;
    peak_rss_mb = peak_rss_mb "self" +. server_rss;
    throughput_per_s = throughput;
    p50_ms = p50;
    tail_ms = tail;
    tail_pct;
    samples = List.length per_op;
    rounds = List.length !untraced;
    artifact_kb;
    named =
      [
        m "serve.verdicts_per_s" "1/s" throughput;
        m "serve.trace_p50_us" "us" (p50 *. 1e3);
        m "serve.trace_tail_us" "us" (tail *. 1e3);
      ];
    layers;
  }
