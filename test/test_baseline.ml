(* Tests for the DME (diversified memory execution) baseline detector. *)

module B = Ipds_baseline
module M = Ipds_machine
module W = Ipds_workloads.Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- DME: layout-diversified replicas ---------- *)

let dme_config ~input_seed =
  {
    M.Interp.default_config with
    inputs = M.Input_script.random ~seed:input_seed ();
    record_trace = false;
  }

let test_dme_decorrelate_shape () =
  let p = W.program (W.find "telnetd") in
  let v = B.Dme.decorrelate p in
  check "variant validates" true (Ipds_mir.Validate.check v = []);
  check "involutive" true (B.Dme.decorrelate v = p);
  (* main has several locals, so at least one address must move *)
  let main p = Ipds_mir.Program.find_func_exn p "main" in
  let moved =
    List.exists
      (fun (var : Ipds_mir.Var.t) ->
        M.Data_layout.local_offset (main p) var 0
        <> M.Data_layout.local_offset (main v) var 0)
      (main p).Ipds_mir.Func.locals
  in
  check "some local moved" true moved

let test_dme_benign_pairs_agree () =
  (* every workload, several input scripts: the variant pair must be
     behaviourally indistinguishable — zero DME false positives *)
  List.iter
    (fun w ->
      let p = W.program w in
      let v = B.Dme.decorrelate p in
      for seed = 0 to 3 do
        let a = B.Dme.run ~config:(dme_config ~input_seed:(700 + seed)) p in
        let b = B.Dme.run ~config:(dme_config ~input_seed:(700 + seed)) v in
        check
          (w.W.name ^ " benign pair agrees (seed " ^ string_of_int seed ^ ")")
          true
          (not (B.Dme.diverged (B.Dme.canonical a) (B.Dme.canonical b)))
      done)
    W.all

let test_dme_divergence_is_canonical_difference () =
  (* the detector fires exactly when the canonical projections differ:
     tampered variant pairs from a real campaign, checked both ways *)
  let w = W.find "wu-ftpd" in
  let p = W.program w in
  let v = B.Dme.decorrelate p in
  let rng = Random.State.make [| 41 |] in
  let fired = ref 0 and quiet = ref 0 in
  for _ = 1 to 40 do
    let input_seed = Random.State.bits rng land 0xffffff in
    let benign = M.Interp.run p (dme_config ~input_seed) in
    if benign.M.Interp.steps > 2 then begin
      let at_step = 1 + Random.State.int rng (benign.M.Interp.steps - 1) in
      let value = Random.State.int rng 256 in
      let plan site = { M.Tamper.at_step; site; seed = Random.State.bits rng land 0xffffff } in
      let attacked =
        M.Interp.run p
          {
            (dme_config ~input_seed) with
            tamper = Some (plan (M.Tamper.Mem_write { model = M.Tamper.Arbitrary_write; value }));
          }
      in
      match attacked.M.Interp.injection with
      | Some (M.Tamper.Tampered_cell cell) ->
          let replica =
            M.Interp.run v
              {
                (dme_config ~input_seed) with
                tamper = Some (plan (M.Tamper.Mem_write_at { addr = cell.addr; value }));
              }
          in
          let ca = B.Dme.canonical attacked and cb = B.Dme.canonical replica in
          check "diverged iff canonical differ" true
            (B.Dme.diverged ca cb = (ca <> cb));
          if B.Dme.diverged ca cb then incr fired else incr quiet
      | _ -> ()
    end
  done;
  (* the campaign must exercise both sides of the detector *)
  check "some attacks diverge" true (!fired > 0);
  check "some attacks stay hidden" true (!quiet > 0)

let test_dme_physical_replay_matches_logical () =
  (* replaying a tamper at its own recorded address in the SAME layout
     must reproduce the original injection exactly *)
  let p = W.program (W.find "httpd") in
  let run tamper =
    M.Interp.run p { (dme_config ~input_seed:9) with tamper = Some tamper }
  in
  let original =
    run
      {
        M.Tamper.at_step = 80;
        site = M.Tamper.Mem_write { model = M.Tamper.Arbitrary_write; value = 5 };
        seed = 123;
      }
  in
  match original.M.Interp.injection with
  | Some (M.Tamper.Tampered_cell cell) ->
      let replay =
        run
          {
            M.Tamper.at_step = 80;
            site = M.Tamper.Mem_write_at { addr = cell.addr; value = 5 };
            seed = 123;
          }
      in
      (match replay.M.Interp.injection with
      | Some (M.Tamper.Tampered_cell cell') ->
          check "same cell" true
            (cell'.addr = cell.addr
            && cell'.var.Ipds_mir.Var.id = cell.var.Ipds_mir.Var.id
            && cell'.index = cell.index);
          check "same behaviour" true
            (not (M.Interp.control_flow_changed original replay)
            && original.M.Interp.outputs = replay.M.Interp.outputs)
      | _ -> Alcotest.fail "physical replay did not inject")
  | _ -> Alcotest.fail "original attack did not inject"

let test_dme_experiment_row () =
  let row = Ipds_harness.Dme_experiment.run ~attacks:20 ~holdout:8 (W.find "sshd") in
  let open Ipds_harness.Dme_experiment in
  check_int "attacks injected" 20 row.attacks;
  check_int "zero benign diffs" 0 row.benign_diffs;
  check "overhead about 2x" true (row.overhead > 1.9 && row.overhead < 2.1);
  check "coverage within injected" true
    (row.dme_detected >= 0 && row.dme_detected <= row.attacks)

let () =
  Alcotest.run "baseline"
    [
      ( "dme",
        [
          Alcotest.test_case "decorrelate shape" `Quick test_dme_decorrelate_shape;
          Alcotest.test_case "benign pairs agree" `Quick test_dme_benign_pairs_agree;
          Alcotest.test_case "divergence is canonical difference" `Quick
            test_dme_divergence_is_canonical_difference;
          Alcotest.test_case "physical replay matches logical" `Quick
            test_dme_physical_replay_matches_logical;
          Alcotest.test_case "experiment row" `Slow test_dme_experiment_row;
        ] );
    ]
