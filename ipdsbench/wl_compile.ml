(* compile: MiniC source to a published artifact, along the
   [ipds compile --precision on] path, into a fresh store each round.

   This is the only workload where analysis, store writes and table
   encoding do the work; precision on runs every analysis layer,
   refine included.  The many small generated members set the median
   and the tail; the firewall members concentrate their run time in
   one huge dispatch function, and build time grows superlinearly with
   the rule count. *)

open Bench
module Core = Ipds_core
module Store = Ipds_artifact.Store
module Artifact = Ipds_artifact.Artifact
module W = Ipds_workloads.Workloads
module Analysis = Ipds_correlation.Analysis
module Interp = Ipds_machine.Interp

let options = { Analysis.default_options with Analysis.precision = Analysis.precision_on }

type program = { name : string; source : string }

(* The 11 built-in servers, [gen] generated members and one firewall
   member per rule count, all drawn from the seed.  A 512-rule member
   would take as long as all the others together and leave half as
   many rounds, so half as many repeats behind each op's median. *)
let inputs ~seed ~tiny =
  let gen = if tiny then 4 else 200 in
  let rules = if tiny then [ 64 ] else [ 64; 128; 256 ] in
  let builtins =
    List.map (fun (w : W.t) -> { name = w.W.name; source = w.W.source }) W.all
  in
  let members =
    List.init gen (fun index ->
        {
          name = Printf.sprintf "gen-%d" index;
          source = Ipds_gen.Gen.source ~seed ~index ();
        })
  in
  let firewalls =
    List.map
      (fun nrules ->
        let w = W.firewall ~seed ~nrules in
        { name = w.W.name; source = w.W.source })
      rules
  in
  builtins @ members @ firewalls


type built = { key : string; system : Core.System.t }

(* One op.  The explicit lookup must miss: the store is fresh. *)
let compile_op ~store ~pool ~op p =
  Trace.root ~op "compile.op" (fun parent ->
      let child name f = Trace.child ~parent ~op name f in
      let key = Store.key ~source:p.source ~promote:true ~options in
      match child "artifact.lookup" (fun () -> Store.load_system store key) with
      | Some _ -> Error "artifact found in a fresh store"
      | None ->
          let mir = child "minic" (fun () -> Ipds_minic.Minic.compile p.source) in
          let mir = child "opt" (fun () -> Ipds_opt.Promote.program mir) in
          let system =
            child "core.build" (fun () ->
                Core.System.build ~options ~pool
                  ~func_cache:(Store.func_cache ~precision:true store)
                  mir)
          in
          child "artifact.publish" (fun () -> Store.publish_system store key system);
          Ok { key; system })

let sizes_of (s : Core.System.t) =
  List.map (fun (n, (i : Core.System.func_info)) -> (n, Core.Tables.sizes i.tables)) s.funcs

(* The published bytes must decode to the same table sizes, and one
   benign run under the fresh checker must raise no alarm.  Returns the
   artifact size in bytes. *)
let check ~store ~seed p b =
  let path = Store.path_of_key store b.key in
  match Artifact.of_bytes (Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)) with
  | exception e -> Error (Printf.sprintf "%s: published artifact unreadable: %s" p.name (Printexc.to_string e))
  | loaded ->
      if sizes_of loaded <> sizes_of b.system then
        Error (p.name ^ ": table sizes differ after the artifact round trip")
      else
        let o =
          Interp.run b.system.program
            {
              Interp.default_config with
              inputs = Ipds_machine.Input_script.random ~seed ();
              checker = Some (Core.System.new_checker b.system);
              record_trace = false;
            }
        in
        if o.Interp.alarms <> [] then
          Error (Printf.sprintf "%s: %d alarms on a benign run" p.name (List.length o.Interp.alarms))
        else Ok (file_size path)

let counter_names =
  [
    "dataflow.block_visits"; "refine.iterations"; "refine.edges_pruned";
    "pass.analyze.units"; "store.bytes_written"; "store.fn_hits"; "store.fn_misses";
  ]
  @ pool_counters

let pass_names = [ "prepare"; "digest"; "analyze"; "refine"; "tables" ]

let pass_seconds () =
  List.map
    (fun (r : Ipds_pass.Pass.report_row) -> (r.r_name, r.r_seconds))
    (Ipds_pass.Pass.report ())

let run (config : config) =
  (* The pool exists before the first set-up, so every timed set-up
     runs beside the same idle domains. *)
  let pool = Ipds_parallel.Pool.create ~jobs:config.jobs () in
  let setup () = Array.of_list (inputs ~seed:config.seed ~tiny:config.tiny) in
  let programs, setup0 = timed setup in
  let untraced = ref [] and traced_walls = ref [] in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let sizes = ref [] in
  let tally = Tally.create counter_names and passes = Hashtbl.create 8 in
  let compile_all ~index store =
    Array.mapi
      (fun i p ->
        try compile_op ~store ~pool ~op:((index * 100_000) + i) p
        with e -> (Error (p.name ^ ": " ^ Printexc.to_string e), nan))
      programs
  in
  let round ~warm ~index ~traced =
    let store_dir = Filename.concat config.work_dir (Printf.sprintf "store-%d" index) in
    let store = Store.create ~dir:store_dir in
    let results =
      if not traced then compile_all ~index store
      else begin
        let pass0 = pass_seconds () in
        let r = Tally.measure tally (fun () -> compile_all ~index store) in
        List.iter2
          (fun (n, a) (_, b) ->
            Hashtbl.replace passes n
              (Option.value (Hashtbl.find_opt passes n) ~default:0. +. (b -. a)))
          pass0 (pass_seconds ());
        r
      end
    in
    let times = Array.map (fun (r, t) -> if Result.is_ok r then t *. 1e3 else nan) results in
    if warm then ()
    else if traced then traced_walls := List.fold_left ( +. ) 0. (finite times) :: !traced_walls
    else untraced := times :: !untraced;
    Array.iteri
      (fun i (r, _) ->
        incr attempted;
        let fail msg =
          incr failed;
          problems := msg :: !problems
        in
        match r with
        | Error msg -> fail msg
        | Ok b -> (
            match check ~store ~seed:config.seed programs.(i) b with
            | Ok bytes -> if index = 0 then sizes := float_of_int bytes :: !sizes
            | Error msg -> fail msg))
      results;
    rm_rf store_dir
  in
  (* one unmeasured round first: the first pass over the inputs grows
     the heap and runs slower than the rest *)
  round ~warm:true ~index:0 ~traced:false;
  let setup_again =
    rounds ~config ~setup_reps:15
      ~setup_again:(fun () -> snd (timed setup))
      (fun ~index ~traced -> round ~warm:false ~index:(index + 1) ~traced)
  in
  let setup_s = median (setup0 :: setup_again) in
  Ipds_parallel.Pool.shutdown pool;
  let per_op = finite (per_op_median !untraced) in
  let tail_pct = tail_percentile ~round_samples:(Array.length programs) in
  let throughput = float_of_int (List.length per_op) /. (List.fold_left ( +. ) 0. per_op /. 1e3) in
  let p50 = median per_op and tail = percentile tail_pct per_op in
  let artifact_kb = mean !sizes /. 1024. in
  let layers =
    if not config.traced then []
    else begin
      let t = Trace.totals () in
      let rounds_f = float_of_int (max 1 tally.Tally.rounds) in
      let pass n = Option.value (Hashtbl.find_opt passes n) ~default:0. /. rounds_f in
      let source_kb =
        float_of_int (Array.fold_left (fun a p -> a + String.length p.source) 0 programs) /. 1024.
      in
      let minic_s = self_total t "minic" /. rounds_f in
      [
        m "minic.self_ms" "ms" (self_ms t "minic");
        m "minic.kb_per_s" "KB/s" (if minic_s = 0. then 0. else source_kb /. minic_s);
        m "opt.self_ms" "ms" (self_ms t "opt");
        m "core.build_ms" "ms" (self_ms t "core.build");
        m "artifact.lookup_ms" "ms" (self_ms t "artifact.lookup");
        m "artifact.publish_ms" "ms" (self_ms t "artifact.publish");
      ]
      @ List.map (fun n -> m ("pass." ^ n ^ "_s") "s" (pass n)) pass_names
      @ List.map
          (fun n -> m n "count" (Tally.per_round tally n))
          [ "dataflow.block_visits"; "refine.iterations"; "refine.edges_pruned"; "pass.analyze.units" ]
      @ [
          m "store.bytes_written" "bytes" (Tally.per_round tally "store.bytes_written");
          m "store.fn_hit_share" "ratio"
            (Tally.share tally "store.fn_hits" [ "store.fn_hits"; "store.fn_misses" ]);
          m "pool.worker_share" "ratio" (pool_worker_share tally);
        ]
      @ reconcile t ~op:"compile.op"
          ~layers:[ "artifact.lookup"; "minic"; "opt"; "core.build"; "artifact.publish" ]
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
    peak_rss_mb = peak_rss_mb "self";
    throughput_per_s = throughput;
    p50_ms = p50;
    tail_ms = tail;
    tail_pct;
    samples = List.length per_op;
    rounds = List.length !untraced;
    artifact_kb;
    named =
      [
        m "compile.programs_per_s" "1/s" throughput;
        m "compile.p50_ms" "ms" p50;
        m "compile.tail_ms" "ms" tail;
        m "compile.artifact_kb" "KB" artifact_kb;
      ];
    layers;
  }
