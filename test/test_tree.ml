open Pag_core
open Pag_grammars

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_build_example () =
  let t = Expr_ag.example in
  Tree.check Expr_ag.grammar t;
  check_bool "root symbol" true (t.Tree.sym = "main_expr")

let test_number_preorder () =
  let t = Expr_ag.main (Expr_ag.add (Expr_ag.num 1) (Expr_ag.num 2)) in
  let n = Tree.number t in
  check_int "count" (Tree.size t) n;
  check_int "root id" 0 t.Tree.id;
  (* Preorder: ids increase parent-before-child, left-before-right. *)
  let ok = ref true in
  Tree.iter
    (fun node ->
      Array.iter
        (fun c -> if c.Tree.id <= node.Tree.id then ok := false)
        node.Tree.children)
    t;
  check_bool "parent before child" true !ok

let test_wrong_arity () =
  match Tree.node Expr_ag.grammar "add" [ Expr_ag.num 1 ] with
  | exception Tree.Error _ -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_wrong_child_symbol () =
  match
    Tree.node Expr_ag.grammar "main"
      [ Tree.leaf Expr_ag.grammar "NUMBER" [ ("value", Value.Int 1) ] ]
  with
  | exception Tree.Error _ -> ()
  | _ -> Alcotest.fail "expected symbol mismatch"

let test_leaf_missing_attr () =
  match Tree.leaf Expr_ag.grammar "NUMBER" [] with
  | exception Tree.Error _ -> ()
  | _ -> Alcotest.fail "expected missing intrinsic attribute"

let test_leaf_unknown_attr () =
  match Tree.leaf Expr_ag.grammar "LET" [ ("junk", Value.Unit) ] with
  | exception Tree.Error _ -> ()
  | _ -> Alcotest.fail "expected unknown attribute"

let test_term_attr () =
  let leaf = Tree.leaf Expr_ag.grammar "NUMBER" [ ("value", Value.Int 9) ] in
  check_bool "value" true (Value.equal (Tree.term_attr leaf "value") (Value.Int 9));
  match Tree.term_attr (Expr_ag.num 1) "value" with
  | exception Tree.Error _ -> ()
  | _ -> Alcotest.fail "term_attr on interior node must fail"

let test_size_byte_size () =
  let t = Expr_ag.example in
  check_int "example node count" 20 (Tree.size t);
  check_bool "byte size grows with tree" true
    (Tree.byte_size t > Tree.byte_size (Expr_ag.num 1))

let test_fold_iter_agree () =
  let t = Expr_ag.example in
  let count = Tree.fold (fun n _ -> n + 1) 0 t in
  check_int "fold count = size" (Tree.size t) count

let test_deep_tree_stack_safe () =
  (* 50_000-deep right-leaning additions: iter/number must not overflow. *)
  let t = ref (Expr_ag.num 0) in
  for i = 1 to 50_000 do
    t := Expr_ag.add (Expr_ag.num i) !t
  done;
  let t = Expr_ag.main !t in
  let n = Tree.number t in
  check_bool "big" true (n > 100_000)

(* ------------------------------------------------------------------ *)
(* Tree.diff against the two-pass reference                            *)
(* ------------------------------------------------------------------ *)

(* The diff [Tree.diff] replaced, kept as the oracle: at each node it
   compares every child pair with [Tree.equal], then descends again into
   the single differing one — quadratic on deep spines. *)
let ref_diff a b =
  let same_shape (x : Tree.t) (y : Tree.t) =
    x.Tree.sym_id = y.Tree.sym_id
    &&
    match (x.Tree.prod, y.Tree.prod) with
    | Some p, Some q -> p.Grammar.p_id = q.Grammar.p_id
    | None, None ->
        List.compare_lengths x.Tree.term_attrs y.Tree.term_attrs = 0
        && List.for_all2
             (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
             x.Tree.term_attrs y.Tree.term_attrs
    | _ -> false
  in
  let rec go (x : Tree.t) (y : Tree.t) =
    if not (same_shape x y) then Tree.Root
    else begin
      let diffs = ref [] in
      Array.iteri
        (fun i c ->
          if not (Tree.equal c y.Tree.children.(i)) then diffs := i :: !diffs)
        x.Tree.children;
      match !diffs with
      | [] -> Tree.Equal
      | [ i ] -> (
          match go x.Tree.children.(i) y.Tree.children.(i) with
          | Tree.Root ->
              Tree.Subtree { parent = x; pos = i; repl = y.Tree.children.(i) }
          | d -> d)
      | _ -> Tree.Root
    end
  in
  go a b

let same_delta d e =
  match (d, e) with
  | Tree.Equal, Tree.Equal | Tree.Root, Tree.Root -> true
  | Tree.Subtree a, Tree.Subtree b ->
      a.parent == b.parent && a.pos = b.pos && a.repl == b.repl
  | _ -> false

let rec copy (t : Tree.t) = { t with Tree.children = Array.map copy t.Tree.children }

(* [k] random edits on a copy of [t]: a leaf's integer literal bumped, or
   a subtree overwritten by a copy of another subtree of the same symbol
   (structurally equal or not). Edits may nest or cancel. *)
let edited st t k =
  let t' = copy t in
  for _ = 1 to k do
    let sites =
      Array.of_list
        (Tree.fold
           (fun acc (n : Tree.t) ->
             Array.to_list (Array.mapi (fun i _ -> (n, i)) n.Tree.children) @ acc)
           [] t')
    in
    if Array.length sites > 0 then begin
      let parent, pos = sites.(Random.State.int st (Array.length sites)) in
      let c = parent.Tree.children.(pos) in
      let bump (name, v) =
        match v with Value.Int n -> (name, Value.Int (n + 1)) | _ -> (name, v)
      in
      let same_sym =
        Array.of_list
          (Tree.fold
             (fun acc (n : Tree.t) -> if n.Tree.sym = c.Tree.sym then n :: acc else acc)
             [] t')
      in
      parent.Tree.children.(pos) <-
        (if c.Tree.prod = None && Random.State.bool st then
           { c with Tree.term_attrs = List.map bump c.Tree.term_attrs }
         else copy same_sym.(Random.State.int st (Array.length same_sym)))
    end
  done;
  t'

let diff_agrees make (seed, k) =
    let st = Random.State.make [| seed |] in
    let a = make st in
    let b = edited st a k in
    same_delta (Tree.diff a b) (ref_diff a b)

let arb_edits =
  QCheck.make
    ~print:(fun (s, k) -> Printf.sprintf "seed=%d edits=%d" s k)
    QCheck.Gen.(pair (int_bound 100_000) (int_bound 2))

let prop_diff_stackcode =
  Qc_seed.qc ~count:300 "diff = two-pass oracle (stackcode)" arb_edits
    (diff_agrees (fun st -> Stackcode_ag.random_program st ~depth:6 ~blocks:4))

let prop_diff_expr =
  Qc_seed.qc ~count:300 "diff = two-pass oracle (expr)" arb_edits
    (diff_agrees (fun st -> Expr_ag.random_program st ~depth:6))

(* A left-leaning chain 100k additions deep with its deepest literal
   changed: the two-pass diff compares ~5e9 node pairs on it, the one-pass
   diff each pair once. *)
let test_diff_deep_chain () =
  let chain bottom =
    let t = ref (Expr_ag.num bottom) in
    for i = 1 to 100_000 do
      t := Expr_ag.add !t (Expr_ag.num i)
    done;
    Expr_ag.main !t
  in
  let a = chain 0 and b = chain 1 in
  (match Tree.diff a a with
  | Tree.Equal -> ()
  | _ -> Alcotest.fail "a tree differs from itself");
  let rec deepest (t : Tree.t) =
    if Array.length t.Tree.children = 0 then t else deepest t.Tree.children.(0)
  in
  match Tree.diff a b with
  | Tree.Subtree { parent; pos; repl } ->
      check_bool "site is the changed literal" true
        (parent.Tree.children.(pos) == deepest a && repl == deepest b)
  | _ -> Alcotest.fail "expected a subtree delta"

let suite =
  [
    ( "tree",
      [
        Alcotest.test_case "build example" `Quick test_build_example;
        Alcotest.test_case "preorder numbering" `Quick test_number_preorder;
        Alcotest.test_case "wrong arity" `Quick test_wrong_arity;
        Alcotest.test_case "wrong child symbol" `Quick test_wrong_child_symbol;
        Alcotest.test_case "leaf missing attr" `Quick test_leaf_missing_attr;
        Alcotest.test_case "leaf unknown attr" `Quick test_leaf_unknown_attr;
        Alcotest.test_case "term_attr" `Quick test_term_attr;
        Alcotest.test_case "sizes" `Quick test_size_byte_size;
        Alcotest.test_case "fold/iter agree" `Quick test_fold_iter_agree;
        Alcotest.test_case "deep tree" `Quick test_deep_tree_stack_safe;
        prop_diff_stackcode;
        prop_diff_expr;
        Alcotest.test_case "diff: 100k-deep chain" `Quick test_diff_deep_chain;
      ] );
  ]
