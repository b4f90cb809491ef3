(* The IPDS benchmark: one command, three seeded workloads.

     main.exe --workload compile|campaign|serve --seed N --seconds S --trace 0|1
     main.exe --self-test

   Every run prints its metrics by name and unit, checks the workload's
   outputs against an independent oracle, writes a report with the run
   manifest under _ipdsbench/, and ends with one JSON line:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
   alternates untraced and traced rounds and the metrics are the
   per-layer ones (zero for layers the workload does not enter), and
   the spans are written to _ipdsbench/spans-*.jsonl. *)

open Bench
module Json = Ipds_obs.Json
module Manifest = Ipds_obs.Manifest

let out_dir = "_ipdsbench"

(* name, unit; the same lists as BENCHMARK.json, which --self-test
   checks. *)
let end_to_end =
  [
    ("setup_s", "s"); ("peak_rss_mb", "MB"); ("throughput_per_s", "1/s");
    ("p50_ms", "ms"); ("tail_ms", "ms"); ("artifact_kb", "KB");
  ]

let per_layer =
  [
    ("minic.self_ms", "ms"); ("minic.kb_per_s", "KB/s"); ("opt.self_ms", "ms");
    ("core.build_ms", "ms"); ("artifact.lookup_ms", "ms"); ("artifact.publish_ms", "ms");
    ("pass.prepare_s", "s"); ("pass.digest_s", "s"); ("pass.analyze_s", "s");
    ("pass.refine_s", "s"); ("pass.tables_s", "s"); ("dataflow.block_visits", "count");
    ("refine.iterations", "count"); ("refine.edges_pruned", "count");
    ("pass.analyze.units", "count"); ("store.bytes_written", "bytes");
    ("store.fn_hit_share", "ratio"); ("pool.worker_share", "ratio");
    ("harness.row_s", "s"); ("machine.interp_ms", "ms"); ("interp.steps_per_s", "1/s");
    ("core.checker_ms", "ms"); ("checker.branches_per_s", "1/s");
    ("checker.checked_share", "ratio"); ("attack.injected_share", "ratio");
    ("attack.cf_share", "ratio"); ("attack.detected_pct", "%");
    ("serve.load_us", "us"); ("serve.cache_hit_share", "ratio"); ("artifact.load_ms", "ms");
    ("serve.stream_us", "us"); ("serve.server_batch_us", "us");
    ("serve.client_side_us", "us"); ("core.checker_us", "us"); ("serve.overloaded", "count");
    ("serve.protocol_errors", "count"); ("recon.op_ms", "ms"); ("recon.attributed_ms", "ms");
    ("recon.unattributed_ms", "ms"); ("trace.overhead_pct", "%");
  ]

let workloads =
  [ ("compile", Wl_compile.run); ("campaign", Wl_campaign.run); ("serve", Wl_serve.run) ]

let e2e_metrics r =
  [
    m "setup_s" "s" r.setup_s;
    m "peak_rss_mb" "MB" r.peak_rss_mb;
    m "throughput_per_s" "1/s" r.throughput_per_s;
    m "p50_ms" "ms" r.p50_ms;
    m "tail_ms" "ms" r.tail_ms;
    m "artifact_kb" "KB" r.artifact_kb;
  ]

(* Every per-layer name, with the workload's value or 0 when the
   workload does not enter that layer. *)
let layer_metrics r =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> x.name = name) r.layers with
      | Some x -> x
      | None -> m name unit 0.)
    per_layer

let json_metrics ms =
  Json.Obj
    (List.map
       (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ]))
       ms)

(* The commit, read from a .git directory when the checkout has one. *)
let commit () =
  let read path = try Some (String.trim (In_channel.with_open_bin path In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
          match read ".git/packed-refs" with
          | None -> "unknown"
          | Some packed -> (
              match
                List.find_opt
                  (fun l -> String.ends_with ~suffix:(" " ^ r) l)
                  (String.split_on_char '\n' packed)
              with
              | Some l -> List.hd (String.split_on_char ' ' l)
              | None -> "unknown")))
  | Some head -> head

let print_metric x = Printf.printf "  %-28s %14.4f %s\n" x.name x.value x.unit

let run_one ~workload ~(config : config) =
  let run = List.assoc workload workloads in
  Trace.spans := [];
  mkdir_p config.work_dir;
  let r = Fun.protect ~finally:(fun () -> rm_rf config.work_dir) (fun () -> run config) in
  Printf.printf "%s  seed=%d  seconds=%g  trace=%d  jobs=%d\n" workload config.seed
    config.seconds (Bool.to_int config.traced) config.jobs;
  Printf.printf
    "end to end (%d untraced rounds; an op's time is its median over them; tail = p%g of %d ops):\n"
    r.rounds r.tail_pct r.samples;
  List.iter print_metric (e2e_metrics r);
  List.iter print_metric r.named;
  if config.traced then begin
    Printf.printf "per layer (traced rounds):\n";
    List.iter print_metric r.layers
  end;
  Printf.printf "ops: %d attempted, %d failed\n" r.attempted r.failed;
  List.iteri (fun i p -> if i < 10 then Printf.printf "  check failed: %s\n" p) r.problems;
  r

let report_json ~workload ~config r =
  Json.Obj
    [
      ("manifest", Manifest.to_json ());
      ("workload", Json.String workload);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("problems", Json.List (List.map (fun p -> Json.String p) r.problems));
      ("tail_percentile", Json.Float r.tail_pct);
      ("samples", Json.Int r.samples);
      ("rounds", Json.Int r.rounds);
      ("end_to_end", json_metrics (e2e_metrics r @ r.named));
      ("per_layer", if config.traced then json_metrics (layer_metrics r) else Json.Obj []);
    ]

let work_dir () = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ()))

let config ~seed ~seconds ~traced ~tiny =
  {
    seed;
    seconds;
    traced;
    tiny;
    work_dir = work_dir ();
    jobs = Domain.recommended_domain_count ();
  }

(* Tiny versions of every workload, untraced and traced: every metric
   present with its unit, every output check passing, and the metric
   lists equal to BENCHMARK.json's. *)
let self_test () =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match Jsonr.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | exception e -> err "BENCHMARK.json: %s" (Printexc.to_string e)
  | j ->
      let listed key =
        match Jsonr.member key j with
        | Some (Json.List items) ->
            List.map
              (fun i ->
                match (Jsonr.member "name" i, Jsonr.member "unit" i) with
                | Some (Json.String n), Some (Json.String u) -> (n, u)
                | _ -> ("?", "?"))
              items
        | _ -> []
      in
      if listed "end_to_end" <> end_to_end then err "BENCHMARK.json end_to_end differs";
      if listed "per_layer" <> per_layer then err "BENCHMARK.json per_layer differs");
  let named =
    [
      ("compile", [ "compile.programs_per_s"; "compile.p50_ms"; "compile.tail_ms"; "compile.artifact_kb" ]);
      ("campaign", [ "campaign.attacks_per_s"; "campaign.detected_pct" ]);
      ("serve", [ "serve.verdicts_per_s"; "serve.trace_p50_us"; "serve.trace_tail_us" ]);
    ]
  in
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun traced ->
          let config = config ~seed:1 ~seconds:0.2 ~traced ~tiny:true in
          match run_one ~workload ~config with
          | exception e -> err "%s: %s" workload (Printexc.to_string e)
          | r ->
              if r.failed > 0 || r.problems <> [] then err "%s: output checks failed" workload;
              List.iter
                (fun x ->
                  if not (Float.is_finite x.value && x.value > 0.) then
                    err "%s: %s is %g" workload x.name x.value)
                (e2e_metrics r);
              List.iter
                (fun n ->
                  if not (List.exists (fun x -> x.name = n) r.named) then
                    err "%s: %s missing" workload n)
                (List.assoc workload named);
              if traced then
                List.iter
                  (fun x ->
                    if List.assoc_opt x.name per_layer <> Some x.unit then
                      err "%s: layer metric %s (%s) not listed" workload x.name x.unit)
                  r.layers)
        [ false; true ])
    workloads;
  List.iter (Printf.printf "self-test: %s\n") (List.rev !errors);
  Printf.printf "self-test: %s\n" (if !errors = [] then "ok" else "FAILED");
  exit (if !errors = [] then 0 else 1)

let usage () =
  prerr_endline
    "usage: main.exe --workload compile|campaign|serve --seed N --seconds S --trace 0|1\n\
    \       main.exe --self-test";
  exit 2

let () =
  (* at_exit runs last-registered first: servers are killed before
     their run directory is removed *)
  at_exit (fun () -> rm_rf (work_dir ()));
  at_exit Wl_serve.kill_live;
  (* exit through at_exit on a signal, so no server outlives the run *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let args = List.tl (Array.to_list Sys.argv) in
  Manifest.set_string "tool" "ipdsbench";
  Manifest.set_string "commit" (commit ());
  Manifest.set_int "nproc" (Domain.recommended_domain_count ());
  Manifest.set_string "ocaml" Sys.ocaml_version;
  Manifest.set_string "profile" Build_info.profile;
  Manifest.set "argv" (Json.List (List.map (fun a -> Json.String a) args));
  (* no ambient store: every workload uses explicit fresh directories *)
  Ipds_artifact.Store.set_ambient_dir None;
  mkdir_p out_dir;
  if args = [ "--self-test" ] then self_test ();
  let rec parse acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) opts
  then usage ();
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  Manifest.set_int "seed" seed;
  Manifest.set_string "workload" workload;
  let config = config ~seed ~seconds:(float_of_int seconds) ~traced:(trace = 1) ~tiny:false in
  let r = run_one ~workload ~config in
  let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d" workload seed trace) in
  Json.write_file (base ^ ".json") (report_json ~workload ~config r);
  if config.traced then
    Trace.write_jsonl (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed));
  let metrics = if config.traced then layer_metrics r else e2e_metrics r in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.problems = [] && r.failed = 0));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", json_metrics metrics);
          ]))
