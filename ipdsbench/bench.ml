(* Shared machinery of the benchmark: clocks, sample statistics, the
   in-memory span recorder, registry deltas, process memory, and the
   report record every workload fills in. *)

module Json = Ipds_obs.Json
module Reg = Ipds_obs.Registry

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------- statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The tail is the highest percentile of this ladder that leaves at
   least ten samples beyond it.  The percentile is chosen from the
   sample count of one round, which every run reaches, so all runs of a
   workload report the same percentile however many rounds fit in the
   measured time. *)
let ladder = [ 99.9; 99.5; 99.; 98.; 97.5; 95.; 90.; 80.; 75.; 50. ]

let tail_percentile ~round_samples =
  let n = float_of_int round_samples in
  match List.find_opt (fun p -> n *. (1. -. (p /. 100.)) >= 10.) ladder with
  | Some p -> p
  | None -> 50.

(* nearest-rank percentile *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let share num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* ---------- spans ---------- *)

(* Spans live in memory while the benchmark runs and are written out
   once at the end, so recording one costs a clock read and a locked
   cons.  Only the benchmark's own calls into the layers are wrapped. *)
module Trace = struct
  type span = {
    id : int;
    parent : int;  (** 0 for a root *)
    op : int;
    name : string;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let lock = Mutex.create ()
  let spans = ref []
  let next = Atomic.make 1

  let push s =
    Mutex.lock lock;
    spans := s :: !spans;
    Mutex.unlock lock

  let fresh () = Atomic.fetch_and_add next 1

  (* [f] receives the id the span will carry, so children can name it
     as their parent before it is recorded. *)
  let root ~op name f =
    let id = if !on then fresh () else 0 in
    let t0 = now () in
    let r = f id in
    let t1 = now () in
    if !on then push { id; parent = 0; op; name; t0; t1 };
    (r, t1 -. t0)

  let child ~parent ~op name f =
    if not !on then f ()
    else begin
      let t0 = now () in
      let r = f () in
      push { id = fresh (); parent; op; name; t0; t1 = now () };
      r
    end

  let all () = List.rev !spans

  (* Per name: count, total self seconds and total wall seconds, self
     time being a span's duration minus what its direct children
     cover. *)
  let totals () =
    let spans = all () in
    let covered = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          Hashtbl.replace covered s.parent
            (Option.value (Hashtbl.find_opt covered s.parent) ~default:0.
            +. (s.t1 -. s.t0)))
      spans;
    let acc = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let wall = s.t1 -. s.t0 in
        let self = wall -. Option.value (Hashtbl.find_opt covered s.id) ~default:0. in
        let n, st, wt = Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0., 0.) in
        Hashtbl.replace acc s.name (n + 1, st +. self, wt +. wall))
      spans;
    acc

  let write_jsonl path =
    match all () with
    | [] -> ()
    | first :: _ as spans ->
        let base = List.fold_left (fun m s -> Float.min m s.t0) first.t0 spans in
        let oc = open_out path in
        List.iter
          (fun s ->
            output_string oc
              (Json.to_string
                 (Json.Obj
                    [
                      ("id", Json.Int s.id);
                      ("parent", Json.Int s.parent);
                      ("op", Json.Int s.op);
                      ("name", Json.String s.name);
                      ("start_us", Json.Float ((s.t0 -. base) *. 1e6));
                      ("end_us", Json.Float ((s.t1 -. base) *. 1e6));
                    ]));
            output_char oc '\n')
          spans;
        close_out oc
end

(* Span aggregates of one traced run. *)
type layer_times = (string, int * float * float) Hashtbl.t

let span_count (t : layer_times) name =
  match Hashtbl.find_opt t name with Some (n, _, _) -> n | None -> 0

let self_total (t : layer_times) name =
  match Hashtbl.find_opt t name with Some (_, s, _) -> s | None -> 0.

(* mean self time per span, in ms *)
let self_ms (t : layer_times) name =
  match Hashtbl.find_opt t name with
  | Some (n, s, _) when n > 0 -> s /. float_of_int n *. 1e3
  | _ -> 0.

(* mean wall time per span, in ms *)
let wall_ms (t : layer_times) name =
  match Hashtbl.find_opt t name with
  | Some (n, _, w) when n > 0 -> w /. float_of_int n *. 1e3
  | _ -> 0.

(* ---------- registry counters over the traced rounds ---------- *)

let counter name = Reg.counter_value (Reg.counter name)

module Tally = struct
  type t = { names : string list; sums : (string, int) Hashtbl.t; mutable rounds : int }

  let create names = { names; sums = Hashtbl.create 16; rounds = 0 }
  let sum t n = Option.value (Hashtbl.find_opt t.sums n) ~default:0

  let measure t f =
    let before = List.map (fun n -> (n, counter n)) t.names in
    let r = f () in
    List.iter (fun (n, v) -> Hashtbl.replace t.sums n (sum t n + counter n - v)) before;
    t.rounds <- t.rounds + 1;
    r

  let per_round t n = float_of_int (sum t n) /. float_of_int (max 1 t.rounds)
  let share t num den = share (sum t num) (List.fold_left (fun a n -> a + sum t n) 0 den)
end

let pool_counters = [ "pool.tasks.worker"; "pool.tasks.caller" ]

let pool_worker_share tally =
  Tally.share tally "pool.tasks.worker" pool_counters

(* ---------- recorded runs and the reference checker ---------- *)

module Event = Ipds_machine.Event
module Interp = Ipds_machine.Interp

let relevant (e : Event.t) =
  match e.kind with Event.Call _ | Event.Ret | Event.Branch _ -> true | _ -> false

(* One interpreter run with no checker, its checker-relevant events
   taken from the commit-order sink. *)
let record program ~inputs ~tamper =
  let events = ref [] in
  let o =
    Interp.run program
      {
        Interp.default_config with
        inputs = Ipds_machine.Input_script.random ~seed:inputs ();
        record_trace = false;
        tamper;
        sink = Some (fun e -> if relevant e then events := e :: !events);
      }
  in
  (o, List.rev !events)

let count_branches events =
  List.fold_left
    (fun n (e : Event.t) -> match e.kind with Event.Branch _ -> n + 1 | _ -> n)
    0 events

(* The oracle of every verdict check: the list-based reference checker
   over a recorded stream.  A frameless return or branch, which the
   server would refuse, means the recording itself is broken. *)
let reference system events =
  let module Core = Ipds_core in
  let c = Core.System.new_ref_checker system in
  let frame () =
    if Core.Checker_ref.depth c = 0 then failwith "recorded trace leaves the checker stack"
  in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Call { callee } ->
          if Core.System.mem system callee then ignore (Core.Checker_ref.on_call c callee)
      | Event.Ret ->
          frame ();
          Core.Checker_ref.on_return c
      | Event.Branch { taken; _ } ->
          frame ();
          ignore (Core.Checker_ref.on_branch c ~pc:e.pc ~taken)
      | _ -> ())
    events;
  Core.Checker_ref.alarms c

(* ---------- process memory ---------- *)

(* Peak resident set (VmHWM) of a process, in MB; 0 if unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l -> (
            match Scanf.sscanf l "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.
            | exception _ -> scan ())
      in
      let v = scan () in
      close_in ic;
      v

(* ---------- files ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_size path = (Unix.stat path).Unix.st_size

(* ---------- the report every workload fills in ---------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

type report = {
  attempted : int;
  failed : int;
  problems : string list;  (** output-check failures; empty when correct *)
  setup_s : float;
  peak_rss_mb : float;
  throughput_per_s : float;
  p50_ms : float;
  tail_ms : float;
  tail_pct : float;
  samples : int;  (** ops behind p50 and tail *)
  rounds : int;  (** untraced rounds; an op's time is its median over them *)
  artifact_kb : float;
  named : metric list;
      (** the end-to-end figures under their workload-specific names *)
  layers : metric list;  (** traced runs only *)
}

(* How a run is shaped: [seconds] of measurement, [traced] alternates
   untraced and traced rounds, [tiny] shrinks every input for the
   self-test. *)
type config = {
  seed : int;
  seconds : float;
  traced : bool;
  tiny : bool;
  work_dir : string;  (** fresh per run, removed at exit *)
  jobs : int;
}

(* Run rounds of fixed work until the measured time is spent: a new
   round starts only if it is expected to finish inside [seconds], and
   at least one round always runs.  In a traced run rounds alternate
   untraced/traced (starting untraced), and at least one of each runs.

   Set-up is timed [setup_reps] times in all.  The workload times the
   first set-up, whose state the rounds use; [setup_again] sets up once
   more, tears down at once and returns its set-up time.  Those repeats
   are spread evenly over the measured time, so a burst of load from a
   neighbour on a shared machine reaches only a few of them, and
   [rounds] returns their times. *)
let rounds ~config ~setup_reps ~setup_again round =
  let start = now () in
  let again = ref [] in
  let due () = List.length !again < setup_reps - 1 in
  let rec go i last =
    let elapsed = now () -. start in
    let next_at = config.seconds *. float_of_int (List.length !again + 1) /. float_of_int setup_reps in
    if due () && elapsed >= next_at then begin
      again := setup_again () :: !again;
      go i last
    end
    else
      let need_more = config.traced && i < 2 in
      if i = 0 || need_more || elapsed +. last <= config.seconds then begin
        let traced = config.traced && i mod 2 = 1 in
        Trace.on := traced;
        let (), t = timed (fun () -> round ~index:i ~traced) in
        Trace.on := false;
        go (i + 1) t
      end
  in
  go 0 0.;
  while due () do
    again := setup_again () :: !again
  done;
  !again

(* Every round repeats the same ops, so each op has one time per
   untraced round.  An op's time is the median of its repeats (nan
   marks a failed op), so a round slowed by a neighbour on a shared
   machine moves neither the median nor the tail. *)
let finite a = List.filter (fun x -> not (Float.is_nan x)) (Array.to_list a)

let per_op_median (rounds : float array list) =
  match rounds with
  | [] -> [||]
  | first :: _ ->
      Array.init (Array.length first) (fun i ->
          median (finite (Array.of_list (List.map (fun r -> r.(i)) rounds))))

(* Tracing overhead: op wall time of traced rounds against untraced
   ones, as a percentage.  Both lists hold per-round sums over the same
   fixed op set. *)
let overhead_pct ~untraced ~traced =
  match (untraced, traced) with
  | [], _ | _, [] -> 0.
  | _ -> ((median traced /. median untraced) -. 1.) *. 100.

(* Per-op reconciliation of a traced run: the op's mean wall time next
   to the part its layer spans account for, and the named remainder. *)
let recon_metrics ~op_ms ~attributed_ms =
  [
    m "recon.op_ms" "ms" op_ms;
    m "recon.attributed_ms" "ms" attributed_ms;
    m "recon.unattributed_ms" "ms" (op_ms -. attributed_ms);
  ]

let reconcile (t : layer_times) ~op ~layers =
  let ops = float_of_int (max 1 (span_count t op)) in
  recon_metrics ~op_ms:(wall_ms t op)
    ~attributed_ms:
      (List.fold_left (fun acc l -> acc +. self_total t l) 0. layers /. ops *. 1e3)
