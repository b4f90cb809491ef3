(* campaign: the paper's Figure 7 path.  One op is one attack — a
   benign run, a tampered run and a verdict — driven by
   [Attack_experiment.campaign] over the 11 built-in servers and the
   mem, cond-flip and insn-skip universes, with a fixed attack count
   per row.  The tables are built in set-up.

   Here the interpreter, the tamper sites and the inline flat checker do
   the work; analysis, wire and store do almost none. *)

open Bench
module Core = Ipds_core
module W = Ipds_workloads.Workloads
module AE = Ipds_harness.Attack_experiment
module Tamper = Ipds_machine.Tamper

let universes = [ `Mem; `Cond_flip; `Insn_skip ]

type target = {
  w : W.t;
  program : Ipds_mir.Program.t;
  system : Core.System.t;
  artifact_bytes : int;
}

(* One row: a (server, universe, attack seed) triple. *)
type row = {
  target : target;
  universe : AE.universe;
  row_seed : int;
}

let model (w : W.t) = function
  | `Mem ->
      (W.tamper_model w :> [ `Stack_overflow | `Arbitrary_write | `Cond_flip | `Insn_skip ])
  | `Cond_flip -> `Cond_flip
  | `Insn_skip -> `Insn_skip

(* Built explicitly rather than through the workload memo, so every
   set-up really compiles and analyzes. *)
let build (w : W.t) =
  let program = Ipds_opt.Promote.program (Ipds_minic.Minic.compile w.W.source) in
  let system = Core.System.build program in
  { w; program; system; artifact_bytes = Bytes.length (Ipds_artifact.Artifact.to_bytes system) }

let attacks ~tiny = if tiny then 2 else 10

(* [seeds] attack seeds per (server, universe) pair make rows enough
   for a tail of per-attack times within one round. *)
let rows ~seed ~tiny targets =
  let seeds = if tiny then 1 else 4 in
  List.concat_map
    (fun s ->
      List.concat_map
        (fun universe ->
          List.map (fun target -> { target; universe; row_seed = (seed * 1009) + s }) targets)
        universes)
    (List.init seeds Fun.id)

(* The oracle: each row recomputed without the harness and without the
   flat checker.  The attempts are replayed the way [Attack_experiment]
   runs them: an RNG per (seed, workload, attempt index), a benign run,
   a tamper at a seeded step of its [20%, 100%) window, and the tampered
   run on the same inputs, evaluated in chunks of [attacks] attempts
   until [attacks] tamperings took effect.  The RNG derivation and the
   order of its draws mirror the harness's; the golden campaign rows of
   its tests pin them there.  Both runs are
   recorded through the interpreter's sink and judged by the list-based
   reference checker; control flow changed when the committed (pc,
   taken) sequences or the stop reasons differ.  An alarm on a benign
   run, or one without a control-flow change, is a false positive and
   fails the row. *)
type verdict = Skipped | Injected of { changed : bool; alarmed : bool }

let stop_tag (o : Interp.outcome) =
  match o.Interp.reason with
  | Interp.Exited (Ipds_machine.Value.Int n) -> `Exit n
  | Interp.Exited (Ipds_machine.Value.Ptr _) -> `Exit (-1)
  | Interp.Halted -> `Halt
  | Interp.Fault m -> `Fault m
  | Interp.Out_of_steps -> `Steps
  | Interp.Trapped _ -> `Trap

let branch_seq events =
  List.filter_map
    (fun (e : Event.t) -> match e.kind with Event.Branch { taken; _ } -> Some (e.pc, taken) | _ -> None)
    events

let replay_attempt (r : row) attempt =
  let program = r.target.program and system = r.target.system in
  let name = r.target.w.W.name in
  let rng = Random.State.make [| r.row_seed; Hashtbl.hash name; attempt; 0x6a09e667 |] in
  let inputs = Random.State.bits rng land 0xffffff in
  let benign, benign_events = record program ~inputs ~tamper:None in
  if reference system benign_events <> [] then Error (name ^ ": reference alarm on a benign run")
  else if benign.Interp.steps <= 2 then Ok Skipped
  else begin
    let lo = max 1 (benign.Interp.steps / 5) in
    let at_step = lo + Random.State.int rng (max 1 (benign.Interp.steps - lo)) in
    let value = if Random.State.bool rng then Random.State.int rng 8 else Random.State.int rng 256 in
    let seed = Random.State.bits rng land 0xffffff in
    let site =
      match model r.target.w r.universe with
      | `Stack_overflow -> Tamper.Mem_write { model = Tamper.Stack_overflow; value }
      | `Arbitrary_write -> Tamper.Mem_write { model = Tamper.Arbitrary_write; value }
      | `Cond_flip -> Tamper.Cond_flip
      | `Insn_skip -> Tamper.Insn_skip
    in
    let attacked, events = record program ~inputs ~tamper:(Some { Tamper.at_step; site; seed }) in
    match attacked.Interp.injection with
    | None -> Ok Skipped
    | Some _ ->
        let changed =
          stop_tag benign <> stop_tag attacked || branch_seq benign_events <> branch_seq events
        in
        let alarmed = reference system events <> [] in
        if alarmed && not changed then Error (name ^ ": reference alarm without a control-flow change")
        else Ok (Injected { changed; alarmed })
  end

(* The expected (attacks, cf_changed, detected) of a row. *)
let expected_row ~attacks (r : row) =
  let max_attempts = attacks * 4 in
  let rec chunks next (inj, cf, det) =
    if inj >= attacks || next >= max_attempts then Ok (inj, cf, det)
    else
      let hi = min max_attempts (next + attacks) in
      let rec fold i acc =
        if i >= hi then Ok acc
        else
          match replay_attempt r i with
          | Error _ as e -> e
          | Ok v ->
              let inj, cf, det = acc in
              let acc =
                match v with
                | Injected { changed; alarmed } when inj < attacks ->
                    (inj + 1, cf + Bool.to_int changed, det + Bool.to_int alarmed)
                | _ -> acc
              in
              fold (i + 1) acc
      in
      match fold next (inj, cf, det) with Ok acc -> chunks hi acc | Error _ as e -> e
  in
  try chunks 0 (0, 0, 0) with Failure msg -> Error (r.target.w.W.name ^ ": " ^ msg)

let counter_names =
  [
    "attack.attempts"; "attack.injected"; "attack.cf_changed"; "attack.detected";
    "checker.branches"; "checker.checked";
  ]
  @ pool_counters

(* The traced run's extra measurements for a row: the row's benign
   script through the interpreter with no checker, then the same run's
   events through a fresh flat checker. *)
let layer_probe ~op (r : row) =
  let inputs () = Ipds_machine.Input_script.random ~seed:r.row_seed () in
  let (o : Interp.outcome), _ =
    Trace.root ~op "machine.interp" (fun _ ->
        Interp.run r.target.program
          { Interp.default_config with inputs = inputs (); record_trace = false })
  in
  let events = ref [] in
  ignore
    (Interp.run r.target.program
       {
         Interp.default_config with
         inputs = inputs ();
         record_trace = false;
         sink = Some (fun e -> events := e :: !events);
       });
  let events = List.rev !events in
  let branches =
    List.fold_left
      (fun n (e : Event.t) -> match e.kind with Event.Branch _ -> n + 1 | _ -> n)
      0 events
  in
  let checker = Core.System.new_checker r.target.system in
  ignore
    (Trace.root ~op "core.checker" (fun _ ->
         Ipds_machine.Replay.feed_all checker ~defined:(Core.System.mem r.target.system) events));
  Core.Checker.flush checker;
  (o.Interp.steps, branches)

let run (config : config) =
  (* The pool exists before the first set-up, so every timed set-up
     runs beside the same idle domains. *)
  let pool = Ipds_parallel.Pool.create ~jobs:config.jobs () in
  let setup () = List.map build W.all in
  let targets, setup0 = timed setup in
  let rows = Array.of_list (rows ~seed:config.seed ~tiny:config.tiny targets) in
  let attacks = attacks ~tiny:config.tiny in
  let expected = Array.map (expected_row ~attacks) rows in
  let untraced = ref [] and traced_walls = ref [] in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let injected = Array.make (Array.length rows) 0 and detected = ref 0 in
  let tally = Tally.create counter_names in
  let steps = ref 0 and branches = ref 0 in
  (* interpreter steps and inline-checked branches of the traced rows'
     attempts, read from the registry around the harness call *)
  let row_steps = ref 0 and row_branches = ref 0 in
  let fail n msg =
    failed := !failed + n;
    problems := msg :: !problems
  in
  let run_row ~index ~traced i r =
    let op = (index * 100_000) + i in
    let s0 = counter "interp.steps" and b0 = counter "checker.branches" in
    let result, t =
      Trace.root ~op "harness.row" (fun _ ->
          try
            Ok
              (AE.campaign ~system:r.target.system ~pool ~attacks ~seed:r.row_seed
                 ~model:(model r.target.w r.universe) ~name:r.target.w.W.name
                 r.target.program)
          with AE.False_positive msg -> Error ("false positive: " ^ msg))
    in
    let s1 = counter "interp.steps" and b1 = counter "checker.branches" in
    match result with
    | Error msg ->
        attempted := !attempted + attacks;
        fail attacks msg;
        nan
    | Ok (row : AE.row) ->
        attempted := !attempted + row.attacks;
        (match expected.(i) with
        | Error msg -> fail row.attacks ("oracle: " ^ msg)
        | Ok (a, cf, det) ->
            if (row.attacks, row.cf_changed, row.detected) <> (a, cf, det) then
              fail row.attacks
                (Printf.sprintf
                   "%s/%s seed %d: attacks/cf_changed/detected %d/%d/%d, the reference gives %d/%d/%d"
                   row.workload (AE.universe_name r.universe) r.row_seed row.attacks
                   row.cf_changed row.detected a cf det));
        if index = 0 then begin
          injected.(i) <- row.attacks;
          detected := !detected + row.detected
        end;
        if traced then begin
          row_steps := !row_steps + (s1 - s0);
          row_branches := !row_branches + (b1 - b0);
          let s, b = layer_probe ~op r in
          steps := !steps + s;
          branches := !branches + b
        end;
        t *. 1e3
  in
  let round ~index ~traced =
    let run_all () = Array.mapi (run_row ~index ~traced) rows in
    if traced then
      traced_walls := List.fold_left ( +. ) 0. (finite (Tally.measure tally run_all)) :: !traced_walls
    else untraced := run_all () :: !untraced
  in
  let setup_s =
    median (setup0 :: rounds ~config ~setup_reps:9 ~setup_again:(fun () -> snd (timed setup)) round)
  in
  Ipds_parallel.Pool.shutdown pool;
  let row_ms = per_op_median !untraced in
  let tail_pct = tail_percentile ~round_samples:(Array.length rows) in
  let total_attacks = Array.fold_left ( + ) 0 injected in
  let throughput =
    float_of_int total_attacks /. (List.fold_left ( +. ) 0. (finite row_ms) /. 1e3)
  in
  let per_attack = finite (Array.mapi (fun i t -> t /. float_of_int (max 1 injected.(i))) row_ms) in
  let p50 = median per_attack and tail = percentile tail_pct per_attack in
  let detected_pct = 100. *. share !detected total_attacks in
  let artifact_kb =
    mean (List.map (fun t -> float_of_int t.artifact_bytes) targets) /. 1024.
  in
  let layers =
    if not config.traced then []
    else begin
      let t = Trace.totals () in
      let interp_ms = self_ms t "machine.interp" and checker_ms = self_ms t "core.checker" in
      let interp_s = self_total t "machine.interp" and checker_s = self_total t "core.checker" in
      (* The layers run inside the harness's pool tasks, out of the
         benchmark's reach, so a row's attributed time is a model: the
         row's measured interpreter steps and inline-checked branches at
         the probe's measured cost per step and per branch, spread
         evenly over the pool.  The remainder is harness and pool
         overhead; it is negative when the pool does better than even
         spreading. *)
      let rows_n = float_of_int (max 1 (span_count t "harness.row")) in
      let per n total = if n = 0 then 0. else total /. float_of_int n in
      let modelled =
        ((float_of_int !row_steps *. per !steps interp_s)
        +. (float_of_int !row_branches *. per !branches checker_s))
        /. rows_n /. float_of_int config.jobs *. 1e3
      in
      if modelled > wall_ms t "harness.row" then
        prerr_endline "note: campaign's modelled attributed time exceeds the row time";
      let per_sec n s = if s = 0. then 0. else float_of_int n /. s in
      [
        m "harness.row_s" "s" (wall_ms t "harness.row" /. 1e3);
        m "machine.interp_ms" "ms" interp_ms;
        m "interp.steps_per_s" "1/s" (per_sec !steps interp_s);
        m "core.checker_ms" "ms" checker_ms;
        m "checker.branches_per_s" "1/s" (per_sec !branches checker_s);
        m "checker.checked_share" "ratio"
          (Tally.share tally "checker.checked" [ "checker.branches" ]);
        m "attack.injected_share" "ratio"
          (Tally.share tally "attack.injected" [ "attack.attempts" ]);
        m "attack.cf_share" "ratio" (Tally.share tally "attack.cf_changed" [ "attack.injected" ]);
        m "attack.detected_pct" "%"
          (100. *. Tally.share tally "attack.detected" [ "attack.injected" ]);
        m "pool.worker_share" "ratio" (pool_worker_share tally);
      ]
      @ recon_metrics ~op_ms:(wall_ms t "harness.row") ~attributed_ms:modelled
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
    samples = List.length per_attack;
    rounds = List.length !untraced;
    artifact_kb;
    named =
      [
        m "campaign.attacks_per_s" "1/s" throughput;
        m "campaign.detected_pct" "%" detected_pct;
        m "campaign.p50_ms" "ms" p50;
        m "campaign.tail_ms" "ms" tail;
      ];
    layers;
  }
