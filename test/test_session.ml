(* Edit sessions: the distributed wave must preserve the incremental
   invariant (resident values = from-scratch values) while its census and
   latency stay sane — references never beat full shipping on size, the
   wave touches every boundary, and a no-op edit moves nothing. *)

open Pag_core
open Pag_eval
open Pag_grammars
open Pag_parallel

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let expr_of seed =
  Expr_ag.random_program (Random.State.make [| seed |]) ~depth:8

(* Small granularity so the expression tree actually decomposes. *)
let sp machines = Session.spec ~granularity:0.05 ~librarian:false machines

let session_agrees_with_scratch g es fresh =
  let scratch, _ = Dynamic.eval g fresh in
  Test_incr.values_agree g (Session.store es) (Session.tree es) scratch fresh

let test_edit_wave () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 4) g (expr_of 3) in
  let r = Session.edit es (expr_of 4) in
  check_bool "values = scratch" true (session_agrees_with_scratch g es (expr_of 4));
  check_bool "latency advanced" true (r.Session.er_latency > 0.0);
  check_bool "wave carried messages" true (r.Session.er_messages > 0);
  check_bool "boundary census covers the wave" true
    (r.Session.er_boundary_changed <= r.Session.er_boundary_total);
  check_bool "incremental wave smaller than full recompile" true
    (r.Session.er_bytes_incr < r.Session.er_bytes_full)

let test_identity_edit_moves_nothing () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 4) g (expr_of 3) in
  let r = Session.edit es (expr_of 3) in
  check_int "no messages" 0 r.Session.er_messages;
  check_int "no bytes" 0 r.Session.er_bytes_incr;
  check_bool "no latency" true (r.Session.er_latency = 0.0)

let test_edit_sequence () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 3) g (expr_of 10) in
  List.iter
    (fun seed ->
      ignore (Session.edit es (expr_of seed));
      check_bool
        (Printf.sprintf "values = scratch after seed %d" seed)
        true
        (session_agrees_with_scratch g es (expr_of seed)))
    [ 11; 12; 11; 13; 10 ];
  let t = Session.totals es in
  check_int "five edits recorded" 5 t.Incr.tot_edits

let test_single_machine () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 1) g (expr_of 3) in
  let r = Session.edit es (expr_of 4) in
  check_int "owner is the only fragment" 0 r.Session.er_owner;
  check_bool "values = scratch" true
    (session_agrees_with_scratch g es (expr_of 4));
  check_bool "root attrs still reported" true (r.Session.er_messages > 0)

(* A root-production change falls back, re-decomposes, and later subtree
   edits keep working against the fresh plan. *)
let test_root_change_then_edit () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 3) g (Test_incr.expr_a ()) in
  let r1 = Session.edit es (Test_incr.expr_c ()) in
  check_bool "root change fell back" true r1.Session.er_fallback;
  check_bool "values = scratch" true
    (session_agrees_with_scratch g es (Test_incr.expr_c ()));
  let r2 = Session.edit es (expr_of 4) in
  ignore r2;
  check_bool "values = scratch after re-plan" true
    (session_agrees_with_scratch g es (expr_of 4))

(* Successive small edits leave the resident tree carrying appended
   (non-preorder) node ids; re-decomposing between edits must not renumber
   them out from under the store. Pascal single-statement edits force
   Subtree deltas (an Expr random edit usually differs at the root and
   takes the fallback rebuild, which hides id drift). *)
let test_pascal_edit_sequence () =
  let g = Pascal.Pascal_ag.grammar in
  let src k =
    Printf.sprintf
      "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * %d;\n    s := s + i\n  until i > 100;\n\
      \  write(s)\nend.\n"
      k
  in
  let tree k =
    Pascal.Pascal_ag.tree_of_program g (Pascal.Parser.parse_program (src k))
  in
  let es =
    Session.open_session
      (Session.spec ~granularity:0.1 ~librarian:false 3)
      g (tree 2)
  in
  List.iter
    (fun k ->
      let r = Session.edit es (tree k) in
      check_bool
        (Printf.sprintf "subtree delta for * %d" k)
        false r.Session.er_fallback;
      let scratch, _ = Dynamic.eval g (tree k) in
      let masked st =
        Pascal.Driver.mask_labels
          (Pascal.Pascal_ag.code_of_attrs (Store.root_attrs st))
      in
      check_bool
        (Printf.sprintf "code = scratch after * %d" k)
        true
        (String.equal (masked (Session.store es)) (masked scratch)))
    [ 3; 5; 2; 7 ]

(* Resident-store leak regression: every Subtree edit appends the
   replacement's slots to the flat store and detaches the old ones; before
   dead-weight compaction the store grew without bound while the session
   sat resident. A long alternating edit stream must keep the live
   footprint flat and the backing store within the compaction bound
   (slot_count <= 2x live at the trigger, +1 subtree in flight => 3x). *)
let test_resident_store_stays_bounded () =
  let g = Pascal.Pascal_ag.grammar in
  (* the two bodies differ structurally, so each edit takes the
     append-a-replacement path (a token-level change like [* 2] vs [* 3]
     redefines slots in place and never grows the store) *)
  let src rhs =
    Printf.sprintf
      "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * 2;\n    s := %s\n  until i > 100;\n\
      \  write(s)\nend.\n"
      rhs
  in
  let tree rhs =
    Pascal.Pascal_ag.tree_of_program g (Pascal.Parser.parse_program (src rhs))
  in
  let es =
    Session.open_session
      (Session.spec ~granularity:0.1 ~librarian:false 2)
      g (tree "s + i")
  in
  let live0 = Session.live_slots es in
  ignore (Session.edit es (tree "s + i * 2"));
  let live1 = Session.live_slots es in
  let cap = 3 * max live0 live1 in
  for i = 2 to 100 do
    ignore (Session.edit es (tree (if i mod 2 = 0 then "s + i" else "s + i * 2")));
    check_int "live slots stable"
      (if i mod 2 = 0 then live0 else live1)
      (Session.live_slots es);
    check_bool
      (Printf.sprintf "store bounded after edit %d" i)
      true
      (Store.slot_count (Session.store es) <= cap)
  done;
  check_bool "compaction actually triggered" true
    ((Session.totals es).Incr.tot_fallbacks >= 1)

(* Amortized store growth: every structural edit appends the replacement's
   slots to the resident store, whose arrays grow by doubling. Over 500
   edits cycling through structurally different bodies, the store's used
   slot count must be exactly the running sum of appended slots (reset to
   the live tree's slots by each compaction), stay within the resident
   bound of 3x the live slots, and the resident code must stay
   masked-equal to a from-scratch compile. *)
let test_store_growth_500_edits () =
  let g = Pascal.Pascal_ag.grammar in
  let bodies = [| "s + i"; "s + i * 2"; "(s + 1) * i"; "s - i + 3"; "s" |] in
  let src rhs =
    Printf.sprintf
      "program p;\nvar i, s : integer;\nbegin\n  s := 0;\n  i := 1;\n\
      \  repeat\n    i := i * 2;\n    s := %s\n  until i > 100;\n\
      \  write(s)\nend.\n"
      rhs
  in
  let tree k =
    Pascal.Pascal_ag.tree_of_program g
      (Pascal.Parser.parse_program (src bodies.(k)))
  in
  (* the store's slot formula: leaves' terminal attributes take no slots *)
  let store_slots t =
    Tree.fold
      (fun a (n : Tree.t) ->
        match n.Tree.prod with
        | None -> a
        | Some _ -> a + Grammar.attr_count_of_id g n.Tree.sym_id)
      0 t
  in
  let masked st =
    Pascal.Driver.mask_labels
      (Pascal.Pascal_ag.code_of_attrs (Store.root_attrs st))
  in
  let es =
    Session.open_session
      (Session.spec ~granularity:0.1 ~librarian:false 2)
      g (tree 0)
  in
  let st = Random.State.make [| 15 |] in
  let cur = ref 0 and expected = ref (Store.slot_count (Session.store es)) in
  let appends = ref 0 in
  for i = 1 to 500 do
    let k = (!cur + 1 + Random.State.int st (Array.length bodies - 1)) mod Array.length bodies in
    let next = tree k in
    let added =
      match Tree.diff (Session.tree es) next with
      | Tree.Subtree { repl; _ } -> store_slots repl
      | _ -> Alcotest.fail "expected a structural subtree edit"
    in
    let r = Session.edit es next in
    cur := k;
    if r.Session.er_fallback then expected := store_slots (Session.tree es)
    else begin
      incr appends;
      expected := !expected + added
    end;
    let slots = Store.slot_count (Session.store es) in
    check_int (Printf.sprintf "slot count = appended sum after edit %d" i)
      !expected slots;
    check_bool
      (Printf.sprintf "store within 3x live after edit %d" i)
      true
      (slots <= 3 * Session.live_slots es);
    let scratch, _ = Dynamic.eval g (tree k) in
    check_bool
      (Printf.sprintf "code = scratch after edit %d" i)
      true
      (String.equal (masked (Session.store es)) (masked scratch))
  done;
  check_bool "most edits appended" true (!appends > 250);
  check_bool "compaction triggered" true
    ((Session.totals es).Incr.tot_fallbacks >= 1)

(* Batched waves: same finals as serial edits, one priced wave per merged
   cone (fewer messages than per-edit waves), sane census — across all
   three instance schedules. Crafted edits (fresh trees per use — grafting
   renumbers replacement nodes) with a generous frontier so tiny trees
   don't take the rebuild fallback. *)
let test_batched_wave () =
  let g = Expr_ag.grammar in
  (* edit 1 and 2 touch disjoint num leaves and merge into one wave;
     edit 3 replaces the whole left mul, whose old subtree carries edit 1's
     grafted num — structural interference, so it serializes. *)
  let steps =
    [
      (fun () -> Test_incr.indep_base 9 2 3 4);
      (fun () -> Test_incr.indep_base 9 2 7 4);
      (fun () ->
        Expr_ag.(main (add (mul (num 5) (num 6)) (mul (num 7) (num 4)))));
    ]
  in
  let tree step = step () in
  List.iter
    (fun schedule ->
      let spec = Session.spec ~granularity:0.05 ~librarian:false ~schedule 3 in
      let eb =
        Session.open_session ~frontier:1.1 spec g (Test_incr.indep_base 1 2 3 4)
      in
      let es =
        Session.open_session ~frontier:1.1 spec g (Test_incr.indep_base 1 2 3 4)
      in
      let serial_msgs =
        List.fold_left
          (fun acc step ->
            acc + (Session.edit es (tree step)).Session.er_messages)
          0 steps
      in
      let r = Session.edit_batch eb (List.map tree steps) in
      check_int "three edits in the batch" 3 r.Session.br_edits;
      check_bool "batch ran waves" true (r.Session.br_waves >= 1);
      check_bool "conflict serialized into a follow-up wave" true
        (r.Session.br_conflicts >= 1);
      check_bool "latency advanced" true (r.Session.br_latency > 0.0);
      check_bool "boundary census sane" true
        (r.Session.br_boundary_changed <= r.Session.br_boundary_total);
      check_bool "merged waves ship fewer messages than serial edits" true
        (r.Session.br_messages < serial_msgs);
      check_bool "batched finals = serial finals" true
        (Test_incr.values_agree g (Session.store eb) (Session.tree eb)
           (Session.store es) (Session.tree es));
      check_bool "values = scratch" true
        (session_agrees_with_scratch g eb (tree (List.nth steps 2))))
    [ `Static; `Dynamic; `Steal ]

let test_batched_identity () =
  let g = Expr_ag.grammar in
  let es = Session.open_session (sp 4) g (expr_of 3) in
  let r = Session.edit_batch es [ expr_of 3; expr_of 3 ] in
  check_int "no messages" 0 r.Session.br_messages;
  check_int "no bytes" 0 r.Session.br_bytes;
  check_bool "no latency" true (r.Session.br_latency = 0.0)

(* Exact wave pricing: every priced field of single-edit and batched
   waves is pinned, latencies bit for bit, so a change to the shared wave
   driver cannot move virtual-time results unnoticed. The fixture is a
   balanced tree of [let] blocks (the expression grammar's only splittable
   symbol), so three machines get three fragments. *)
let rec balanced depth leaf i =
  if depth = 0 then Expr_ag.num (leaf i)
  else
    Expr_ag.let_in "x" (Expr_ag.num i)
      (Expr_ag.add
         (balanced (depth - 1) leaf (2 * i))
         (Expr_ag.mul
            (balanced (depth - 1) leaf ((2 * i) + 1))
            (Expr_ag.var "x")))

(* the balanced fixture with leaf values overridden by [edits] *)
let variant edits =
  Expr_ag.main
    (balanced 5
       (fun i -> Option.value (List.assoc_opt i edits) ~default:(i + 1))
       0)

(* a different root production: the edit falls back to a rebuild *)
let root_change () =
  Expr_ag.(main (let_in "x" (num 4) (add (var "x") (num 2))))

let check_bits what expected actual =
  check_bool
    (Printf.sprintf "%s: %h = %h" what expected actual)
    true
    (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual))

let pinned_session faults =
  Session.open_session ~frontier:1.1
    (Session.spec ~granularity:0.05 ~librarian:false ?faults 3)
    Expr_ag.grammar (variant [])

let drop_faults =
  Some { Netsim.Faults.none with Netsim.Faults.fs_drop = 0.3; fs_seed = 5 }

let test_pinned_edit_pricing () =
  let edits =
    [
      variant [ (3, 40) ];
      variant [ (3, 40); (20, 7) ];
      variant [ (20, 7) ];
      root_change ();
    ]
  in
  List.iter
    (fun (label, faults, expected) ->
      let es = pinned_session faults in
      List.iteri
        (fun k (latency, bytes, full, messages, retransmits) ->
          let r = Session.edit es (List.nth edits k) in
          let what = Printf.sprintf "%s edit %d" label k in
          check_bits (what ^ " latency") latency r.Session.er_latency;
          check_int (what ^ " bytes") bytes r.Session.er_bytes_incr;
          check_int (what ^ " full bytes") full r.Session.er_bytes_full;
          check_int (what ^ " messages") messages r.Session.er_messages;
          check_int (what ^ " retransmits") retransmits
            r.Session.er_retransmits)
        expected)
    [
      ( "fault-free",
        None,
        [
          (0x1.1226733150042p-7, 211, 4743, 6, 0);
          (0x1.a54aa7c3fec7ep-7, 199, 4743, 6, 0);
          (0x1.1226733150042p-7, 211, 4743, 6, 0);
          (0x1.02b261e77ba4bp-4, 212, 244, 4, 0);
        ] );
      ( "drop 0.3",
        drop_faults,
        [
          (0x1.54bc19f7220afp-7, 768, 4743, 22, 9);
          (0x1.e7e04e89d0cedp-7, 871, 4743, 29, 14);
          (0x1.54bc19f7220afp-7, 768, 4743, 22, 9);
          (0x1.5252b32b3b174p-3, 341, 244, 9, 1);
        ] );
    ]

let test_pinned_batch_pricing () =
  List.iter
    (fun (label, faults, (rounds_wave, fallback_wave)) ->
      let es = pinned_session faults in
      let check what (latency, bytes, messages, retransmits, rounds, fallbacks)
          (r : Session.batch_report) =
        let what = Printf.sprintf "%s %s" label what in
        check_bits (what ^ " latency") latency r.Session.br_latency;
        check_int (what ^ " bytes") bytes r.Session.br_bytes;
        check_int (what ^ " messages") messages r.Session.br_messages;
        check_int (what ^ " retransmits") retransmits r.Session.br_retransmits;
        check_int (what ^ " rounds") rounds r.Session.br_rounds;
        check_int (what ^ " fallbacks") fallbacks r.Session.br_fallbacks
      in
      (* two independent leaf edits merge into one wave of parallel rounds
         across the three fragment machines (two non-root fragments with
         two boundary attributes each, plus the root's value) *)
      let r =
        Session.edit_batch es
          [ variant [ (3, 40) ]; variant [ (3, 40); (20, 7) ] ]
      in
      check "rounds wave" rounds_wave r;
      check_int "three fragments" 5 r.Session.br_boundary_total;
      check "fallback wave" fallback_wave
        (Session.edit_batch es [ root_change () ]))
    [
      ( "fault-free",
        None,
        ( (0x1.1a6e404f7b686p-6, 755, 10, 0, 19, 0),
          (0x1.02264aed641cp-4, 106, 4, 0, 0, 1) ) );
      ( "drop 0.3",
        drop_faults,
        ( (0x1.0a23330aef475p-1, 2127, 41, 16, 19, 0),
          (0x1.520ca7ae2f52ep-3, 235, 9, 1, 0, 1) ) );
    ]

let suite =
  [
    ( "session",
      [
        Alcotest.test_case "edit wave" `Quick test_edit_wave;
        Alcotest.test_case "identity edit" `Quick
          test_identity_edit_moves_nothing;
        Alcotest.test_case "edit sequence" `Quick test_edit_sequence;
        Alcotest.test_case "single machine" `Quick test_single_machine;
        Alcotest.test_case "root change then edit" `Quick
          test_root_change_then_edit;
        Alcotest.test_case "pascal edit sequence" `Quick
          test_pascal_edit_sequence;
        Alcotest.test_case "resident store stays bounded" `Quick
          test_resident_store_stays_bounded;
        Alcotest.test_case "store growth over 500 edits" `Quick
          test_store_growth_500_edits;
        Alcotest.test_case "batched wave" `Quick test_batched_wave;
        Alcotest.test_case "batched identity" `Quick test_batched_identity;
        Alcotest.test_case "pinned edit pricing" `Quick
          test_pinned_edit_pricing;
        Alcotest.test_case "pinned batch pricing" `Quick
          test_pinned_batch_pricing;
      ] );
  ]
