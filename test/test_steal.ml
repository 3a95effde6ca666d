(* Work-stealing scheduler: the Chase-Lev deque against a list model, a
   two-domain owner-vs-thief race, engine-level equivalence of [run_steal]
   with [run_topo], and the simulated transport under a fault plan. *)

open Pag_core
open Pag_eval

let qc ?(count = 200) name gen prop = Qc_seed.qc ~count name gen prop

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- deque vs list model ---------------- *)

let test_empty () =
  let d = Steal.create () in
  check_bool "pop of empty" true (Steal.pop d = None);
  check_bool "steal of empty" true (Steal.steal d = None);
  check_int "size of empty" 0 (Steal.size d)

let test_single_element_steal () =
  (* The empty-vs-one boundary is where the owner/thief CAS race lives;
     sequentially both sides must see exactly the one element. *)
  let d = Steal.create () in
  Steal.push d 42;
  check_bool "steal gets it" true (Steal.steal d = Some 42);
  check_bool "then pop empty" true (Steal.pop d = None);
  Steal.push d 7;
  check_bool "pop gets it" true (Steal.pop d = Some 7);
  check_bool "then steal empty" true (Steal.steal d = None)

let test_steal_half () =
  let v = Steal.create () and mine = Steal.create () in
  for i = 0 to 9 do
    Steal.push v i
  done;
  let k = Steal.steal_half v ~into:mine in
  check_int "half of ten" 5 k;
  check_int "victim keeps the rest" 5 (Steal.size v);
  (* the oldest (FIFO) half moves *)
  let got = List.init k (fun _ -> Option.get (Steal.steal mine)) in
  Alcotest.(check (list int)) "oldest half in order" [ 0; 1; 2; 3; 4 ] got

(* The deque as a sequence, top first: push appends at the bottom, pop
   removes the bottom (LIFO), steal removes the top (FIFO). Ops are drawn
   as ints: 0-5 push (weighted so deques actually grow), 6 pop, 7 steal. *)
let prop_deque_model =
  qc "push/pop/steal match the list model"
    QCheck.(list (int_bound 7))
    (fun ops ->
      let d = Steal.create () in
      let model = ref [] in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op <= 5 then begin
            Steal.push d !next;
            model := !model @ [ !next ];
            incr next
          end
          else if op = 6 then begin
            let expect =
              match List.rev !model with
              | [] -> None
              | x :: rest ->
                  model := List.rev rest;
                  Some x
            in
            ok := !ok && Steal.pop d = expect
          end
          else begin
            let expect =
              match !model with
              | [] -> None
              | x :: rest ->
                  model := rest;
                  Some x
            in
            ok := !ok && Steal.steal d = expect
          end)
        ops;
      !ok && Steal.size d = List.length !model)

(* Past the minimum capacity the circular array grows mid-stream; contents
   must survive the copy. *)
let test_grow () =
  let d = Steal.create () in
  for i = 0 to 99 do
    Steal.push d i
  done;
  let stolen = List.init 50 (fun _ -> Option.get (Steal.steal d)) in
  Alcotest.(check (list int)) "fifo across grow" (List.init 50 Fun.id) stolen;
  let popped = List.init 50 (fun _ -> Option.get (Steal.pop d)) in
  Alcotest.(check (list int))
    "lifo across grow"
    (List.rev (List.init 50 (fun i -> 50 + i)))
    popped

(* ---------------- two domains: no loss, no duplication ---------------- *)

let test_owner_vs_thief () =
  let d = Steal.create () in
  let n = 20_000 in
  let stop = Atomic.make false in
  let thief =
    Domain.spawn (fun () ->
        let acc = ref [] in
        let note v = acc := v :: !acc in
        while not (Atomic.get stop) do
          match Steal.steal d with
          | Some v -> note v
          | None -> Domain.cpu_relax ()
        done;
        (* drain whatever the owner left behind *)
        let rec drain () =
          match Steal.steal d with
          | Some v ->
              note v;
              drain ()
          | None -> ()
        in
        drain ();
        !acc)
  in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Steal.push d i;
    (* interleave owner pops so the last-element race is exercised *)
    if i land 3 = 0 then
      match Steal.pop d with Some v -> popped := v :: !popped | None -> ()
  done;
  let rec drain () =
    match Steal.pop d with
    | Some v ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  let stolen = Domain.join thief in
  let all = List.sort compare (!popped @ stolen) in
  check_bool "every pushed id claimed exactly once" true
    (all = List.init n Fun.id)

(* ---------------- engine: run_steal = run_topo ---------------- *)

let stores_bit_identical a b =
  let ok = ref true in
  Store.iter_instances a (fun node attr ->
      match
        ( Store.get_opt a node attr.Grammar.a_name,
          Store.get_opt b node attr.Grammar.a_name )
      with
      | Some x, Some y -> if not (Value.equal x y) then ok := false
      | None, None -> ()
      | _ -> ok := false);
  !ok

let prop_run_steal_matches_topo =
  qc ~count:25 "run_steal = run_topo on random expr trees"
    QCheck.(pair (int_bound 1000) (int_range 2 3))
    (fun (seed, domains) ->
      let g = Pag_grammars.Expr_ag.grammar in
      let tree () =
        Pag_grammars.Expr_ag.random_program (Random.State.make [| seed |]) ~depth:6
      in
      let store1 = Store.create g (tree ()) in
      let e1 = Engine.create g store1 in
      let fired1 = Engine.run_topo e1 (Engine.graph e1) in
      let store2 = Store.create g (tree ()) in
      let e2 = Engine.create g store2 in
      let fired2, stats = Engine.run_steal ~domains e2 (Engine.graph e2) in
      let per_domain = Array.fold_left (fun a s -> a + s.Steal.st_fired) 0 stats in
      fired1 = fired2 && per_domain = fired2
      && Store.missing store2 = 0
      && stores_bit_identical store1 store2)

let test_run_steal_cycle () =
  (* a cyclic instance graph must raise, not deadlock *)
  let open Grammar in
  let g =
    make ~name:"circ" ~start:"r"
      [
        terminal "T" [];
        nonterminal "r" [ syn "out" ];
        nonterminal "x" [ syn "s"; inh "i" ];
      ]
      [
        production ~name:"root" ~lhs:"r" ~rhs:[ "x" ]
          [
            rule (lhs "out") ~deps:[ rhs 1 "s" ] (fun a -> a.(0));
            rule (rhs 1 "i") ~deps:[ rhs 1 "s" ] (fun a -> a.(0));
          ];
        production ~name:"leaf" ~lhs:"x" ~rhs:[ "T" ]
          [ rule (lhs "s") ~deps:[ lhs "i" ] (fun a -> a.(0)) ];
      ]
  in
  let t = Tree.node g "root" [ Tree.node g "leaf" [ Tree.leaf g "T" [] ] ] in
  let store = Store.create g t in
  let e = Engine.create g store in
  check_bool "cycle detected" true
    (try
       ignore (Engine.run_steal ~domains:2 e (Engine.graph e));
       false
     with Engine.Cycle _ -> true)

(* A semantic rule that raises inside the shared steal driver must surface
   as itself — not as [Cycle] from a drained-but-incomplete census — from
   both entry points, with every domain joined. *)
let test_steal_rule_failure () =
  let open Grammar in
  let armed = ref false in
  let g =
    make ~name:"boom" ~start:"r"
      [
        terminal "T" [ "v" ];
        nonterminal "r" [ syn "out" ];
        nonterminal "x" [ syn "s" ];
      ]
      [
        production ~name:"root" ~lhs:"r" ~rhs:[ "x"; "x"; "x"; "x" ]
          [
            rule (lhs "out")
              ~deps:[ rhs 1 "s"; rhs 2 "s"; rhs 3 "s"; rhs 4 "s" ]
              (fun a -> a.(0));
          ];
        production ~name:"leaf" ~lhs:"x" ~rhs:[ "T" ]
          [
            rule (lhs "s") ~deps:[ rhs 1 "v" ] (fun a ->
                if !armed then failwith "boom" else a.(0));
          ];
      ]
  in
  let leaf k = Tree.node g "leaf" [ Tree.leaf g "T" [ ("v", Value.Int k) ] ] in
  let tree () = Tree.node g "root" (List.init 4 leaf) in
  let raises_boom f =
    match f () with
    | _ -> false
    | exception Failure m -> m = "boom"
    | exception Engine.Cycle _ -> false
  in
  armed := true;
  let e = Engine.create g (Store.create g (tree ())) in
  check_bool "run_steal re-raises the rule's exception" true
    (raises_boom (fun () -> ignore (Engine.run_steal ~domains:2 e (Engine.graph e))));
  (* a clean first run, then a refire wave whose every member is a seed *)
  armed := false;
  let st = Store.create g (tree ()) in
  let e = Engine.create g st in
  let gr = Engine.graph e in
  ignore (Engine.run_topo e gr);
  armed := true;
  check_bool "refire_set ~domains:2 re-raises the rule's exception" true
    (raises_boom (fun () ->
         ignore
           (Engine.refire_set ~domains:2 e gr
              ~cone:(Array.init (Engine.rule_count e) Fun.id)
              ~is_seed:(fun _ -> true)
              ~changed:(Array.make (Store.slot_count st) 0)
              ~epoch:1)))

(* ---------------- simulated transport under faults ---------------- *)

let test_sim_steal_under_faults () =
  let prog = fst (Pascal.Progen.gen (Random.State.make [| 7 |]) Pascal.Progen.small) in
  let seq = Pascal.Driver.compile ~evaluator:`Static prog in
  let spec =
    {
      Netsim.Faults.none with
      Netsim.Faults.fs_drop = 0.05;
      fs_dup = 0.02;
      fs_delay = 0.01;
    }
  in
  let opts =
    {
      (Pag_parallel.Session.options
         (Pag_parallel.Session.spec ~schedule:`Steal
            ~phase_label:Pascal.Driver.phase_label 3))
      with
      Pag_parallel.Runner.faults = Some spec;
    }
  in
  let _, c = Pascal.Driver.compile_parallel_sim opts prog in
  check_bool "masked code equal under faults" true
    (String.equal
       (Pascal.Driver.mask_labels c.Pascal.Driver.c_asm)
       (Pascal.Driver.mask_labels seq.Pascal.Driver.c_asm))

let suite =
  [
    ( "steal",
      [
        Alcotest.test_case "deque empty" `Quick test_empty;
        Alcotest.test_case "single-element steal" `Quick test_single_element_steal;
        Alcotest.test_case "steal_half" `Quick test_steal_half;
        Alcotest.test_case "grow" `Quick test_grow;
        prop_deque_model;
        Alcotest.test_case "owner vs thief (2 domains)" `Quick test_owner_vs_thief;
        prop_run_steal_matches_topo;
        Alcotest.test_case "run_steal detects cycles" `Quick test_run_steal_cycle;
        Alcotest.test_case "steal driver re-raises rule failures" `Quick
          test_steal_rule_failure;
        Alcotest.test_case "sim steal under faults" `Quick test_sim_steal_under_faults;
      ] );
  ]
