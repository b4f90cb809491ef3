(* Unit and property tests for the MIR substrate: operators, builder,
   validation, layout, and the printer/parser round trip. *)

module Mir = Ipds_mir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- operators ---------- *)

let test_binop_eval () =
  check_int "add" 7 (Mir.Binop.eval Mir.Binop.Add 3 4);
  check_int "sub" (-1) (Mir.Binop.eval Mir.Binop.Sub 3 4);
  check_int "mul" 12 (Mir.Binop.eval Mir.Binop.Mul 3 4);
  check_int "div" 2 (Mir.Binop.eval Mir.Binop.Div 9 4);
  check_int "div0 is total" 0 (Mir.Binop.eval Mir.Binop.Div 9 0);
  check_int "rem" 1 (Mir.Binop.eval Mir.Binop.Rem 9 4);
  check_int "rem0 is total" 0 (Mir.Binop.eval Mir.Binop.Rem 9 0);
  check_int "and" 0b100 (Mir.Binop.eval Mir.Binop.And 0b110 0b101);
  check_int "or" 0b111 (Mir.Binop.eval Mir.Binop.Or 0b110 0b101);
  check_int "xor" 0b011 (Mir.Binop.eval Mir.Binop.Xor 0b110 0b101);
  check_int "shl" 12 (Mir.Binop.eval Mir.Binop.Shl 3 2);
  check_int "shr" 3 (Mir.Binop.eval Mir.Binop.Shr 12 2);
  check_int "shr negative is arithmetic" (-2) (Mir.Binop.eval Mir.Binop.Shr (-8) 2)

let test_binop_names () =
  List.iter
    (fun op ->
      match Mir.Binop.of_string (Mir.Binop.to_string op) with
      | Some op' -> check "binop name round trip" true (op = op')
      | None -> Alcotest.fail "binop name did not parse")
    Mir.Binop.all;
  check "unknown binop" true (Mir.Binop.of_string "frob" = None)

let test_cmp_eval () =
  check "lt" true (Mir.Cmp.eval Mir.Cmp.Lt 1 2);
  check "le eq" true (Mir.Cmp.eval Mir.Cmp.Le 2 2);
  check "gt" false (Mir.Cmp.eval Mir.Cmp.Gt 1 2);
  check "ge" true (Mir.Cmp.eval Mir.Cmp.Ge 2 2);
  check "eq" false (Mir.Cmp.eval Mir.Cmp.Eq 1 2);
  check "ne" true (Mir.Cmp.eval Mir.Cmp.Ne 1 2)

let test_cmp_negate_swap () =
  List.iter
    (fun c ->
      for a = -3 to 3 do
        for b = -3 to 3 do
          check "negate flips result"
            (not (Mir.Cmp.eval c a b))
            (Mir.Cmp.eval (Mir.Cmp.negate c) a b);
          check "swap flips operands" (Mir.Cmp.eval c a b)
            (Mir.Cmp.eval (Mir.Cmp.swap c) b a)
        done
      done)
    Mir.Cmp.all

(* ---------- vars and cells ---------- *)

let test_var_make () =
  let v = Mir.Var.make ~id:3 ~name:"x" ~size:1 ~storage:Mir.Var.Local in
  check "scalar" true (Mir.Var.is_scalar v);
  let a = Mir.Var.make ~id:4 ~name:"a" ~size:8 ~storage:Mir.Var.Global in
  check "array not scalar" false (Mir.Var.is_scalar a);
  Alcotest.check_raises "zero size rejected"
    (Invalid_argument "Var.make: size must be >= 1") (fun () ->
      ignore (Mir.Var.make ~id:0 ~name:"z" ~size:0 ~storage:Mir.Var.Local))

let test_reg () =
  check_int "index" 5 (Mir.Reg.index (Mir.Reg.make 5));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Reg.make: negative index") (fun () ->
      ignore (Mir.Reg.make (-1)))

(* ---------- builder & validation ---------- *)

let simple_program () =
  let module B = Mir.Builder in
  let b = B.create () in
  let g = B.global b "g" in
  B.func b "main" ~nparams:0 (fun fb _ ->
      let r = B.const fb 5 in
      B.store fb (Mir.Addr.Direct g) (Mir.Operand.reg r);
      B.ret fb (Some (Mir.Operand.reg r)));
  B.finish b

let test_builder_basic () =
  let p = simple_program () in
  check_int "one function" 1 (List.length p.Mir.Program.funcs);
  let f = Mir.Program.find_func_exn p "main" in
  check_int "one block" 1 (Array.length f.Mir.Func.blocks);
  check_int "instr count includes terminator" 3 f.Mir.Func.instr_count

let test_builder_duplicate_function () =
  let module B = Mir.Builder in
  let b = B.create () in
  B.func b "f" ~nparams:0 (fun fb _ -> B.ret fb None);
  check "duplicate rejected" true
    (try
       B.func b "f" ~nparams:0 (fun fb _ -> B.ret fb None);
       false
     with Invalid_argument _ -> true)

let test_builder_unterminated () =
  let module B = Mir.Builder in
  let b = B.create () in
  check "unterminated block rejected" true
    (try
       B.func b "f" ~nparams:0 (fun fb _ -> ignore (B.const fb 1));
       false
     with Invalid_argument _ -> true)

let test_validate_undeclared_call () =
  let module B = Mir.Builder in
  let b = B.create () in
  B.func b "main" ~nparams:0 (fun fb _ ->
      B.call_void fb "mystery" [];
      B.ret fb None);
  check "undeclared callee rejected" true
    (try
       ignore (B.finish b);
       false
     with Invalid_argument _ -> true)

let test_validate_missing_main () =
  let module B = Mir.Builder in
  let b = B.create () in
  B.func b "not_main" ~nparams:0 (fun fb _ -> B.ret fb None);
  check "missing main rejected" true
    (try
       ignore (B.finish b);
       false
     with Invalid_argument _ -> true)

(* ---------- locations and layout ---------- *)

let test_locations () =
  let p = simple_program () in
  let f = Mir.Program.find_func_exn p "main" in
  (match Mir.Func.location f 0 with
  | Mir.Func.Body (0, 0) -> ()
  | Mir.Func.Body _ | Mir.Func.Term _ -> Alcotest.fail "iid 0 should be body 0,0");
  (match Mir.Func.location f 2 with
  | Mir.Func.Term 0 -> ()
  | Mir.Func.Body _ | Mir.Func.Term _ -> Alcotest.fail "iid 2 should be terminator");
  check "terminator has no op" true (Mir.Func.op_at f 2 = None);
  check "out of range raises" true
    (try
       ignore (Mir.Func.location f 99);
       false
     with Not_found -> true)

let test_layout () =
  let p = simple_program () in
  let layout = Mir.Layout.make p in
  let base = Mir.Layout.func_base layout "main" in
  check_int "base aligned" 0 (base mod 64);
  check_int "pc spacing" Mir.Layout.instr_bytes
    (Mir.Layout.pc layout ~fname:"main" ~iid:1 - Mir.Layout.pc layout ~fname:"main" ~iid:0);
  (match Mir.Layout.func_of_pc layout (base + 4) with
  | Some ("main", 1) -> ()
  | Some _ | None -> Alcotest.fail "func_of_pc should invert pc");
  check "pc outside code" true (Mir.Layout.func_of_pc layout 0 = None)

(* ---------- parser / printer ---------- *)

let parse_print_parse src =
  let p1 = Mir.Parser.program_of_string src in
  let s1 = Mir.Printer.program_to_string p1 in
  let p2 = Mir.Parser.program_of_string s1 in
  let s2 = Mir.Printer.program_to_string p2 in
  (s1, s2)

let test_parser_roundtrip () =
  let src =
    {|
global g
global buf[4]
extern strcmp pure
extern recv writes(0)
extern syscall writes_all
func helper(r0, r1) {
 var t
start:
  r2 = add r0, r1
  store t, r2
  r3 = load t
  ret r3
}
func main() {
 var x
entry:
  r0 = 7
  store x, r0
  r1 = load x
  r2 = addr buf[1]
  store [r2], r1
  r4 = load buf[0]
  r5 = call helper(r4, 3)
  r6 = input 0
  output r6
  nop
  br ge r5, 10, big, small
big:
  jmp done
small:
  jmp done
done:
  halt
}
|}
  in
  let s1, s2 = parse_print_parse src in
  check_str "printer/parser fixpoint" s1 s2

let test_parser_errors () =
  let bad input =
    try
      ignore (Mir.Parser.program_of_string input);
      false
    with
    | Mir.Parser.Parse_error _ | Invalid_argument _ -> true
  in
  check "garbage" true (bad "func ???");
  check "unknown var" true (bad "func main() {\ne:\n r0 = load nope\n ret\n}");
  check "bad cmp" true
    (bad "func main() {\ne:\n br zz r0, 1, e, e\n}");
  check "missing brace" true (bad "func main() {\ne:\n ret");
  (* a digit run past the int range is a typed Parse_error, never
     [Failure "int_of_string"] *)
  let literal n = Printf.sprintf "func main() {\ne:\n r0 = %s\n ret\n}" n in
  check "literal past the int range" true (bad (literal "99999999999999999999"));
  check "negative literal past the int range" true
    (bad (literal "-99999999999999999999"));
  check "max_int still parses" false (bad (literal (string_of_int max_int)))

let test_printer_negative_and_empty () =
  let src =
    {|
func main() {
entry:
  r0 = -7
  r1 = add r0, -3
  output r1
  ret -1
}
|}
  in
  let s1, s2 = parse_print_parse src in
  check_str "negative immediates round trip" s1 s2

let test_extern_summaries () =
  check "pure round" true
    (Mir.Extern.equal Mir.Extern.Pure (Mir.Extern.lookup [ ("f", Mir.Extern.Pure) ] "f"));
  check "unknown is conservative" true
    (Mir.Extern.equal Mir.Extern.Writes_anything (Mir.Extern.lookup [] "mystery"));
  check "args summaries compare" true
    (Mir.Extern.equal (Mir.Extern.Writes_args [ 0; 2 ]) (Mir.Extern.Writes_args [ 0; 2 ]));
  check "different args differ" false
    (Mir.Extern.equal (Mir.Extern.Writes_args [ 0 ]) (Mir.Extern.Writes_args [ 1 ]));
  check "default table has strcmp" true
    (List.mem_assoc "strcmp" Mir.Extern.default_table)

let test_validate_error_classes () =
  (* hand-build invalid programs through the record types directly *)
  let v = Mir.Var.make ~id:0 ~name:"x" ~size:1 ~storage:Mir.Var.Local in
  let mk_func blocks instr_count reg_count =
    {
      Mir.Func.name = "main";
      params = [];
      locals = [ v ];
      blocks;
      reg_count;
      instr_count;
    }
  in
  let block body term term_iid =
    { Mir.Block.index = 0; label = "entry"; body; term; term_iid }
  in
  let prog f =
    {
      Mir.Program.funcs = [ f ];
      globals = [];
      externs = [];
      main = "main";
      var_count = 1;
    }
  in
  (* dangling block target *)
  let f1 = mk_func [| block [||] (Mir.Terminator.Jump 5) 0 |] 1 0 in
  check "dangling target caught" true (Mir.Validate.check (prog f1) <> []);
  (* out-of-range register *)
  let f2 =
    mk_func
      [| block [| { Mir.Instr.iid = 0; op = Mir.Op.Const (Mir.Reg.make 9, 1) } |]
           (Mir.Terminator.Return None) 1 |]
      2 1
  in
  check "register out of range caught" true (Mir.Validate.check (prog f2) <> []);
  (* non-dense instruction ids *)
  let f3 =
    mk_func
      [| block [| { Mir.Instr.iid = 7; op = Mir.Op.Nop } |] (Mir.Terminator.Return None) 1 |]
      2 0
  in
  check "non-dense iids caught" true (Mir.Validate.check (prog f3) <> [])

let test_program_lookups () =
  let p = simple_program () in
  check "find_func" true (Mir.Program.find_func p "main" <> None);
  check "find_func misses" true (Mir.Program.find_func p "nope" = None);
  check "is_defined" true (Mir.Program.is_defined p "main");
  let g = List.hd p.Mir.Program.globals in
  check "find_var" true
    (match Mir.Program.find_var p g.Mir.Var.id with
    | Some v -> Mir.Var.equal v g
    | None -> false);
  check "find_var misses" true (Mir.Program.find_var p 999 = None)

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"printer/parser round trip on random MIR" ~count:100
    Gen.mir_program (fun p ->
      let s1 = Mir.Printer.program_to_string p in
      let p2 = Mir.Parser.program_of_string s1 in
      let s2 = Mir.Printer.program_to_string p2 in
      String.equal s1 s2)

(* The artifact "code" section persists programs as printed text, so the
   parser must rebuild the exact structure — not just stable text — up
   to what the text can express: [r = <imm>] always parses as [Const],
   so [Move (r, Imm n)] comes back as [Const (r, n)], and [reg_count]
   (a builder reservation the printer has no syntax for) is inferred
   from the registers actually mentioned. *)
let canon_program (p : Mir.Program.t) =
  let canon_op = function
    | Mir.Op.Move (r, Mir.Operand.Imm n) -> Mir.Op.Const (r, n)
    | op -> op
  in
  let canon_block (b : Mir.Block.t) =
    {
      b with
      Mir.Block.body =
        Array.map
          (fun (i : Mir.Instr.t) -> { i with Mir.Instr.op = canon_op i.op })
          b.Mir.Block.body;
    }
  in
  let canon_func (f : Mir.Func.t) =
    let count = ref 0 in
    let see r = count := max !count (Mir.Reg.index r + 1) in
    List.iter see f.Mir.Func.params;
    Array.iter
      (fun (b : Mir.Block.t) ->
        Array.iter
          (fun (i : Mir.Instr.t) ->
            Option.iter see (Mir.Op.def i.op);
            List.iter see (Mir.Op.uses i.op))
          b.Mir.Block.body;
        List.iter see (Mir.Terminator.uses b.Mir.Block.term))
      f.Mir.Func.blocks;
    {
      f with
      Mir.Func.blocks = Array.map canon_block f.Mir.Func.blocks;
      Mir.Func.reg_count = !count;
    }
  in
  { p with Mir.Program.funcs = List.map canon_func p.Mir.Program.funcs }

let structural_roundtrip p =
  Mir.Parser.program_of_string (Mir.Printer.program_to_string p)
  = canon_program p

let prop_roundtrip_structural =
  QCheck2.Test.make ~name:"parser rebuilds the exact program (random MIR)"
    ~count:100 Gen.mir_program structural_roundtrip

let prop_roundtrip_structural_minic =
  QCheck2.Test.make
    ~name:"parser rebuilds the exact program (MiniC front end)" ~count:60
    Gen.minic_program structural_roundtrip

let prop_layout_inverse =
  QCheck2.Test.make ~name:"layout pc/func_of_pc are inverse" ~count:60
    Gen.mir_program (fun p ->
      let layout = Mir.Layout.make p in
      List.for_all
        (fun (f : Mir.Func.t) ->
          List.for_all
            (fun iid ->
              Mir.Layout.func_of_pc layout
                (Mir.Layout.pc layout ~fname:f.name ~iid)
              = Some (f.name, iid))
            (List.init f.instr_count Fun.id))
        p.Mir.Program.funcs)

let prop_validate_random =
  QCheck2.Test.make ~name:"random programs validate" ~count:100 Gen.mir_program
    (fun p -> Mir.Validate.check p = [])

let () =
  Alcotest.run "mir"
    [
      ( "operators",
        [
          Alcotest.test_case "binop eval" `Quick test_binop_eval;
          Alcotest.test_case "binop names" `Quick test_binop_names;
          Alcotest.test_case "cmp eval" `Quick test_cmp_eval;
          Alcotest.test_case "cmp negate/swap" `Quick test_cmp_negate_swap;
        ] );
      ( "variables",
        [
          Alcotest.test_case "var make" `Quick test_var_make;
          Alcotest.test_case "reg" `Quick test_reg;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "duplicate function" `Quick test_builder_duplicate_function;
          Alcotest.test_case "unterminated block" `Quick test_builder_unterminated;
          Alcotest.test_case "undeclared call" `Quick test_validate_undeclared_call;
          Alcotest.test_case "missing main" `Quick test_validate_missing_main;
        ] );
      ( "layout",
        [
          Alcotest.test_case "locations" `Quick test_locations;
          Alcotest.test_case "layout" `Quick test_layout;
        ] );
      ( "parser",
        [
          Alcotest.test_case "round trip" `Quick test_parser_roundtrip;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_roundtrip_structural;
          QCheck_alcotest.to_alcotest prop_roundtrip_structural_minic;
          QCheck_alcotest.to_alcotest prop_validate_random;
          QCheck_alcotest.to_alcotest prop_layout_inverse;
          Alcotest.test_case "negatives and empties" `Quick test_printer_negative_and_empty;
        ] );
      ( "program",
        [
          Alcotest.test_case "extern summaries" `Quick test_extern_summaries;
          Alcotest.test_case "validate error classes" `Quick test_validate_error_classes;
          Alcotest.test_case "program lookups" `Quick test_program_lookups;
        ] );
    ]
