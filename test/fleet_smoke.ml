(* End-to-end smoke test of fleet mode (@fleet-smoke):

   A 3-shard fleet (three event-loop servers over one shared artifact
   store) serves every built-in workload through the routing client:
   - consistent hashing spreads the keys over at least two shards and
     every remote verdict stream is byte-identical to an in-process
     System.new_checker run;
   - killing a shard yields typed [Unavailable] errors for its keys and
     the client re-routes to a ring successor, still byte-identical
     (the store is shared, so failover costs a cache miss, not truth);
   - with the whole fleet down, connect_for_key is a typed
     [Unavailable] error, not an exception;
   - a cold shard with its own store warms itself from a peer over the
     artifact fetch frame, with zero compiles;
   - two shards that each miss keys the other holds, loaded cold in
     both directions at once, answer every load (the peer fetch is
     bounded by a receive timeout) and load every key on a retry. *)

module P = Ipds_serve.Protocol
module Server = Ipds_serve.Server
module Client = Ipds_serve.Client
module Fleet_client = Ipds_serve.Fleet_client
module Topology = Ipds_fleet.Topology
module Backoff = Ipds_fleet.Backoff
module W = Ipds_workloads.Workloads
module Core = Ipds_core
module M = Ipds_machine
module Store = Ipds_artifact.Store

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "FLEET SMOKE FAIL: %s\n%!" msg;
      exit 1)
    fmt

let section title = Printf.printf "--- %s ---\n%!" title

let ok = function
  | Ok v -> v
  | Error (e : P.err) ->
      fail "unexpected remote error %s: %s" (P.error_code_to_string e.P.code)
        e.P.detail

let temp_path suffix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ipds-fleet-smoke-%d%s" (Unix.getpid ()) suffix)

(* ---------- local reference runs ---------- *)

type local_run = {
  events : M.Event.t list;
  alarms : Core.Checker.alarm list;
  branches : int;
}

let local_run system program ~seed =
  let checker = Core.System.new_checker system in
  let events = ref [] in
  let o =
    M.Interp.run program
      {
        M.Interp.default_config with
        max_steps = 60_000;
        inputs = M.Input_script.random ~seed ();
        checker = Some checker;
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
  {
    events = List.rev !events;
    alarms = Core.Checker.alarms checker;
    branches = o.M.Interp.branches;
  }

let render = List.map P.verdict_to_string

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

let remote_check client run =
  ok (Client.begin_trace client);
  let verdicts = ref [] in
  List.iter
    (fun batch -> verdicts := !verdicts @ ok (Client.send_events client batch))
    (chunks 200 run.events);
  let summary = ok (Client.end_trace client) in
  (!verdicts, summary)

let assert_equivalent ~what run (verdicts, (summary : P.summary)) =
  if render verdicts <> render run.alarms || verdicts <> run.alarms then
    fail "%s: remote verdicts differ from in-process checking" what;
  if
    summary.P.total_events <> List.length run.events
    || summary.P.total_branches <> run.branches
    || summary.P.total_alarms <> List.length run.alarms
  then fail "%s: trace summary diverges from the local run" what

(* ---------- the smoke ---------- *)

let () =
  let shards = 3 in
  let store_dir = temp_path "-store" in
  let store = Store.create ~dir:store_dir in
  let base = temp_path ".sock" in
  let topology = Topology.create ~shards (`Unix base) in
  (* fast, still-bounded failover so the dead-fleet paths stay quick *)
  let backoff = Backoff.create ~base:0.005 ~max_delay:0.02 ~max_attempts:4 () in
  let config =
    { Server.default_config with cache_slots = 16; store_dir = Some store_dir }
  in
  let start_shard i =
    match Topology.address topology i with
    | `Unix path -> Server.start ~config (`Unix path)
    | `Tcp _ -> fail "unix topology produced a tcp address"
  in
  let servers = Array.init shards start_shard in
  let stopped = Array.make shards false in
  let stop_shard i =
    if not stopped.(i) then begin
      stopped.(i) <- true;
      Server.stop servers.(i)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iteri (fun i _ -> stop_shard i) servers;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote store_dir))))
  @@ fun () ->
  let fc = Fleet_client.create ~backoff topology in
  (* publish every workload into the shared store and precompute the
     reference runs *)
  let cases =
    List.map
      (fun (w : W.t) ->
        let system = W.system w in
        let key = "fleet-" ^ w.W.name in
        Store.publish_system store key system;
        (w.W.name, key, local_run system (W.program w) ~seed:2006))
      W.all
  in

  section "1: routed checking, byte-identical to local, >= 2 shards used";
  let used = Hashtbl.create 8 in
  List.iter
    (fun (name, key, run) ->
      match Fleet_client.connect_for_key fc key with
      | Error e -> fail "%s: no route: %s" name e.P.detail
      | Ok routed ->
          if routed.Fleet_client.skipped <> [] then
            fail "%s: healthy fleet produced skipped shards" name;
          if routed.Fleet_client.shard <> Fleet_client.shard_of_key fc key then
            fail "%s: connected shard is not the ring owner" name;
          Hashtbl.replace used routed.Fleet_client.shard ();
          let c = routed.Fleet_client.client in
          ignore (ok (Client.load_key c key));
          assert_equivalent ~what:name run (remote_check c run);
          Client.close c)
    cases;
  if Hashtbl.length used < 2 then
    fail "only %d shard(s) used for %d keys" (Hashtbl.length used)
      (List.length cases);
  Printf.printf "1 ok: %d workloads over %d shards, all byte-identical\n%!"
    (List.length cases) (Hashtbl.length used);

  section "2: dead shard -> typed unavailable, re-route, identical verdicts";
  let name0, key0, run0 = List.hd cases in
  let owner = Fleet_client.shard_of_key fc key0 in
  stop_shard owner;
  (match Fleet_client.connect_for_key fc key0 with
  | Error e -> fail "failover gave up: %s" e.P.detail
  | Ok routed ->
      (match routed.Fleet_client.skipped with
      | [ (e : P.err) ] ->
          if e.P.code <> P.Unavailable then
            fail "skipped shard error is %s, not unavailable"
              (P.error_code_to_string e.P.code)
      | skipped ->
          fail "expected exactly one skipped shard, got %d"
            (List.length skipped));
      if routed.Fleet_client.shard = owner then
        fail "re-route landed on the dead owner";
      let c = routed.Fleet_client.client in
      ignore (ok (Client.load_key c key0));
      assert_equivalent ~what:(name0 ^ "/failover") run0 (remote_check c run0);
      Client.close c);
  (* keys owned by surviving shards are untouched *)
  List.iter
    (fun (name, key, run) ->
      if Fleet_client.shard_of_key fc key <> owner then begin
        match Fleet_client.connect_for_key fc key with
        | Error e -> fail "%s: survivor unreachable: %s" name e.P.detail
        | Ok routed ->
            if routed.Fleet_client.skipped <> [] then
              fail "%s: survivor-owned key paid a failover" name;
            let c = routed.Fleet_client.client in
            ignore (ok (Client.load_key c key));
            assert_equivalent ~what:(name ^ "/survivor") run
              (remote_check c run);
            Client.close c
      end)
    (List.filteri (fun i _ -> i < 4) cases);
  Printf.printf "2 ok: one skipped typed unavailable, verdicts identical after re-route\n%!";

  section "3: whole fleet down -> typed unavailable, no exceptions";
  Array.iteri (fun i _ -> stop_shard i) servers;
  (match Fleet_client.connect_for_key fc key0 with
  | Ok routed ->
      Client.close routed.Fleet_client.client;
      fail "connect_for_key succeeded against a dead fleet"
  | Error e ->
      if e.P.code <> P.Unavailable then
        fail "dead fleet error is %s, not unavailable"
          (P.error_code_to_string e.P.code));
  Printf.printf "3 ok: dead fleet surfaces as typed unavailable\n%!";

  section "4: artifact sharing -- cold shard warms itself from a peer";
  (* Two fresh shards with SEPARATE stores (sections 1-3 share one
     directory, which would hide the fetch): warm shard 0 holds the
     artifact, cold shard 1 must obtain it over the fetch frame, verify
     it, publish it into its own store and serve byte-identical
     verdicts -- with zero MiniC compiles anywhere in the process. *)
  let module Reg = Ipds_obs.Registry in
  let cval name = Reg.counter_value (Reg.counter name) in
  let base4 = temp_path "-share.sock" in
  let topo4 = Topology.create ~shards:2 (`Unix base4) in
  let dirs = [| temp_path "-share-store0"; temp_path "-share-store1" |] in
  let share_config topo dirs i =
    {
      Server.default_config with
      cache_slots = 16;
      store_dir = Some dirs.(i);
      peers =
        Some
          {
            Server.peer_topology = topo;
            peer_self = i;
            peer_backoff = backoff;
          };
    }
  in
  let path4 i =
    match Topology.address topo4 i with
    | `Unix path -> path
    | `Tcp _ -> fail "unix topology produced a tcp address"
  in
  let s4 = Array.init 2 (fun i -> Server.start ~config:(share_config topo4 dirs i) (`Unix (path4 i))) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Server.stop s4;
      Array.iter
        (fun d -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d))))
        dirs)
  @@ fun () ->
  let w4 = List.hd W.all in
  let system4 = W.system w4 in
  let key4 = "share-" ^ w4.W.name in
  let run4 = local_run system4 (W.program w4) ~seed:2006 in
  let store_warm = Store.create ~dir:dirs.(0) in
  Store.publish_system store_warm key4 system4;
  let compiles0 = W.compile_count () in
  let fetches0 = cval "serve.artifact_fetches" in
  let peer_loads0 = cval "serve.artifact_peer_loads" in
  (* straight to the COLD shard: its store misses, so it must go to its
     ring peer (never itself) for the bytes *)
  let c = Client.connect (`Unix (path4 1)) in
  ignore (ok (Client.load_key c key4));
  assert_equivalent ~what:"cold-shard warm-up" run4 (remote_check c run4);
  Client.close c;
  if W.compile_count () <> compiles0 then
    fail "cold shard recompiled instead of fetching from its peer";
  if cval "serve.artifact_fetches" - fetches0 <> 1 then
    fail "expected exactly one peer fetch served, got %d"
      (cval "serve.artifact_fetches" - fetches0);
  if cval "serve.artifact_peer_loads" - peer_loads0 <> 1 then
    fail "expected exactly one peer-warmed load, got %d"
      (cval "serve.artifact_peer_loads" - peer_loads0);
  (* the fetched artifact was published into the cold shard's own
     store: a fresh session is a local hit, no second peer fetch *)
  let fetches1 = cval "serve.artifact_fetches" in
  let c2 = Client.connect (`Unix (path4 1)) in
  ignore (ok (Client.load_key c2 key4));
  assert_equivalent ~what:"warmed-shard rerun" run4 (remote_check c2 run4);
  Client.close c2;
  if cval "serve.artifact_fetches" <> fetches1 then
    fail "warmed shard paid a second peer fetch";
  (* and client-side push seeds a shard directly: push to shard 0 under
     a new key, then a fetch returns the identical bytes *)
  let image4 = Ipds_artifact.Artifact.to_bytes system4 in
  let fc4 = Fleet_client.create ~backoff topo4 in
  (match Fleet_client.push_artifact fc4 ~key:"share-seeded" image4 with
  | Ok true -> ()
  | Ok false -> fail "seeding push reported duplicate on an empty key"
  | Error e -> fail "seeding push failed: %s" e.P.detail);
  (match Fleet_client.fetch_artifact fc4 "share-seeded" with
  | Ok got when Bytes.equal got image4 -> ()
  | Ok _ -> fail "fetched bytes differ from the pushed image"
  | Error e -> fail "fetch after push failed: %s" e.P.detail);
  Printf.printf
    "4 ok: cold shard warmed over the wire, zero compiles, verdicts identical\n%!";

  section "5: two-way cold loads -- every load answers, a retry loads";
  (* Each loop fetches inside the Load_key it is serving, so a shard
     fetching from a peer whose loop is itself inside a fetch waits on
     it; without a bound on that wait the two shards wedge for good. *)
  let base5 = temp_path "-cross.sock" in
  let topo5 = Topology.create ~shards:2 (`Unix base5) in
  let dirs5 = [| temp_path "-cross-store0"; temp_path "-cross-store1" |] in
  let path5 i =
    match Topology.address topo5 i with
    | `Unix path -> path
    | `Tcp _ -> fail "unix topology produced a tcp address"
  in
  let s5 =
    Array.init 2 (fun i ->
        Server.start ~config:(share_config topo5 dirs5 i) (`Unix (path5 i)))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Server.stop s5;
      Array.iter
        (fun d -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d))))
        dirs5)
  @@ fun () ->
  (* shard i's store holds [held.(i)]; loads at shard i ask for the
     keys only the other shard holds *)
  let per_side = 4 in
  let held =
    Array.init 2 (fun i ->
        let store = Store.create ~dir:dirs5.(i) in
        List.filteri (fun j _ -> j / per_side = i) W.all
        |> List.map (fun (w : W.t) ->
               let key = "cross-" ^ w.W.name in
               Store.publish_system store key (W.system w);
               key))
  in
  let answered = Atomic.make 0 in
  let load_at i key =
    let c = Client.connect (`Unix (path5 i)) in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.load_key c key)
  in
  let loaders =
    Array.init 2 (fun i ->
        Domain.spawn (fun () ->
            List.map
              (fun key ->
                let r = load_at i key in
                Atomic.incr answered;
                (key, r))
              held.(1 - i)))
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while Atomic.get answered < 2 * per_side do
    if Unix.gettimeofday () > deadline then
      fail "two-way cold loads: %d of %d answered within 30 s"
        (Atomic.get answered) (2 * per_side);
    Unix.sleepf 0.05
  done;
  let first = Array.map Domain.join loaders in
  let typed_errors = ref 0 in
  Array.iter
    (List.iter (fun (key, r) ->
         match r with
         | Ok _ -> ()
         | Error (e : P.err) when e.P.code = P.Unknown_artifact -> incr typed_errors
         | Error e ->
             fail "%s: cold load gave %s, not loaded or unknown-artifact" key
               (P.error_code_to_string e.P.code)))
    first;
  Array.iteri
    (fun i keys -> List.iter (fun key -> ignore (ok (load_at i key))) keys)
    [| held.(1); held.(0) |];
  Printf.printf
    "5 ok: %d two-way cold loads answered (%d typed misses), every retry loaded\n%!"
    (2 * per_side) !typed_errors;
  print_endline "fleet smoke OK"
