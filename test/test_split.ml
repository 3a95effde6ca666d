open Pag_core
open Pag_parallel
open Pag_grammars

let qc ?(count = 60) name gen prop = Qc_seed.qc ~count name gen prop

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let big_tree seed =
  Stackcode_ag.random_program (Random.State.make [| seed |]) ~depth:8 ~blocks:6

let test_single_machine_one_fragment () =
  let t = big_tree 1 in
  let plan = Split.decompose Stackcode_ag.grammar t ~machines:1 ~granularity:1.0 in
  check_int "one fragment" 1 (Split.count plan);
  let f = (Split.fragments plan).(0) in
  check_bool "root fragment is the tree" true (f.Split.fr_root == t);
  check_bool "no parent" true (f.Split.fr_parent = None);
  Alcotest.(check (list int)) "no cuts" [] (Split.cuts_of plan 0)

let test_fragments_bounded_by_machines () =
  let t = big_tree 2 in
  for m = 1 to 8 do
    let plan = Split.decompose Stackcode_ag.grammar t ~machines:m ~granularity:1.0 in
    check_bool
      (Printf.sprintf "machines=%d" m)
      true
      (Split.count plan >= 1 && Split.count plan <= m)
  done

let test_cut_roots_are_splittable () =
  let t = big_tree 3 in
  let plan = Split.decompose Stackcode_ag.grammar t ~machines:5 ~granularity:1.0 in
  Array.iter
    (fun (f : Split.fragment) ->
      if f.Split.fr_id <> 0 then begin
        let sym = Grammar.symbol Stackcode_ag.grammar f.Split.fr_root.Tree.sym in
        check_bool "cut at splittable symbol" true (sym.Grammar.s_split <> None);
        check_bool "has a parent" true (f.Split.fr_parent <> None)
      end)
    (Split.fragments plan)

let test_cut_consistency () =
  let t = big_tree 4 in
  let plan = Split.decompose Stackcode_ag.grammar t ~machines:6 ~granularity:1.0 in
  (* Every non-root fragment appears exactly once as a cut of its parent. *)
  Array.iter
    (fun (f : Split.fragment) ->
      match f.Split.fr_parent with
      | None -> ()
      | Some p ->
          let cuts = Split.cuts_of plan p in
          check_bool "registered as parent's cut" true
            (List.mem f.Split.fr_root.Tree.id cuts);
          check_int "cut maps back to fragment"
            f.Split.fr_id
            (Option.get (Split.fragment_of_cut_node plan f.Split.fr_root.Tree.id)))
    (Split.fragments plan)

let test_granularity_disables_splitting () =
  let t = big_tree 5 in
  (* Gigantic minimum size: nothing qualifies. *)
  let plan =
    Split.decompose Stackcode_ag.grammar t ~machines:6 ~granularity:1e9
  in
  check_int "no split at huge granularity" 1 (Split.count plan)

let test_balance_quality () =
  (* On a list-like program with many split points (the shape of a real
     source file: a long sequence of procedure-sized blocks), 5 fragments
     should come out roughly equal — the paper's "subtrees of about equal
     size". The balance bound is necessarily loose on lumpy trees, so this
     uses a regular chain of 64 equal blocks. *)
  let st = Random.State.make [| 42 |] in
  let body () =
    Stackcode_ag.(
      add (num (Random.State.int st 10)) (mul (num 2) (num (Random.State.int st 10))))
  in
  let t =
    (* nested blocks: each block contains the rest of the program, like a
       statement list whose suffix node covers the remaining statements *)
    Stackcode_ag.main
      (List.fold_left
         (fun acc i ->
           Stackcode_ag.(let_in (Printf.sprintf "p%d" i) i (add (body ()) acc)))
         (Stackcode_ag.num 0)
         (List.init 64 (fun i -> i)))
  in
  let plan = Split.decompose Stackcode_ag.grammar t ~machines:5 ~granularity:1.0 in
  check_int "five fragments" 5 (Split.count plan);
  let sizes =
    Array.to_list (Array.map (fun f -> f.Split.fr_bytes) (Split.fragments plan))
  in
  let mn = List.fold_left min max_int sizes
  and mx = List.fold_left max 0 sizes in
  check_bool (Printf.sprintf "balance %d..%d" mn mx) true (mx <= 3 * mn)

let test_pp_runs () =
  let t = big_tree 6 in
  let plan = Split.decompose Stackcode_ag.grammar t ~machines:4 ~granularity:1.0 in
  let s = Format.asprintf "%a" Split.pp plan in
  check_bool "pp nonempty" true (String.length s > 20)

let arb_seed_machines =
  QCheck.make
    ~print:(fun (s, m) -> Printf.sprintf "seed=%d machines=%d" s m)
    QCheck.Gen.(pair (int_bound 10_000) (int_range 1 7))

let prop_residuals_sum_to_total =
  qc "fragment residuals partition the tree" arb_seed_machines (fun (seed, m) ->
      let t = big_tree seed in
      let plan = Split.decompose Stackcode_ag.grammar t ~machines:m ~granularity:1.0 in
      let total =
        Array.fold_left (fun a f -> a + f.Split.fr_bytes) 0 (Split.fragments plan)
      in
      (* total of residuals = whole tree's byte size *)
      let whole =
        let plan1 = Split.decompose Stackcode_ag.grammar t ~machines:1 ~granularity:1.0 in
        (Split.fragments plan1).(0).Split.fr_bytes
      in
      total = whole)

let prop_fragments_disjoint =
  qc "fragments own disjoint node sets" arb_seed_machines (fun (seed, m) ->
      let t = big_tree seed in
      let plan = Split.decompose Stackcode_ag.grammar t ~machines:m ~granularity:1.0 in
      (* walk each fragment, stopping at its cuts; count total visited *)
      let seen = Hashtbl.create 1024 in
      let ok = ref true in
      Array.iter
        (fun (f : Split.fragment) ->
          let cuts = Split.cuts_of plan f.Split.fr_id in
          let rec walk (n : Tree.t) =
            if List.mem n.Tree.id cuts then () (* another fragment's root *)
            else begin
              if Hashtbl.mem seen n.Tree.id then ok := false
              else Hashtbl.replace seen n.Tree.id ();
              Array.iter walk n.Tree.children
            end
          in
          walk f.Split.fr_root)
        (Split.fragments plan);
      !ok && Hashtbl.length seen = Tree.size t)

(* ------------------------------------------------------------------ *)
(* Reference decomposition                                             *)
(* ------------------------------------------------------------------ *)

(* The hashtable decomposition [Split.decompose] replaced, kept verbatim
   as the oracle: an id -> preorder [Hashtbl] over [Tree.iter] order, a
   [Hashtbl] uniqueness check, and [owner_of] by walking each fragment
   from its root. The linear [Split] must reproduce its plans exactly. *)
module Ref = struct
  type work = {
    w_id : int;
    w_root : Tree.t;
    mutable w_parent : int option;
    mutable w_cuts : Tree.t list;
  }

  type plan = {
    frags : Split.fragment array;
    cut_to_frag : (int, int) Hashtbl.t;
    cut_lists : int list array;
  }

  let node_bytes node =
    8
    + List.fold_left
        (fun a (_, v) -> a + Value.byte_size v)
        0 node.Tree.term_attrs

  let decompose g tree ~machines ~granularity =
    let ids_unique =
      let seen = Hashtbl.create 256 in
      let ok = ref true in
      Tree.iter
        (fun nd ->
          if nd.Tree.id < 0 || Hashtbl.mem seen nd.Tree.id then ok := false
          else Hashtbl.add seen nd.Tree.id ())
        tree;
      !ok
    in
    if not ids_unique then ignore (Tree.number tree);
    let n = Tree.size tree in
    let nodes = Array.make n tree in
    let pre_tbl = Hashtbl.create n in
    let next = ref 0 in
    Tree.iter
      (fun nd ->
        nodes.(!next) <- nd;
        Hashtbl.replace pre_tbl nd.Tree.id !next;
        incr next)
      tree;
    let pre (nd : Tree.t) = Hashtbl.find pre_tbl nd.Tree.id in
    let counts = Array.make n 1 in
    let bytes = Array.make n 0 in
    for i = n - 1 downto 0 do
      bytes.(i) <- node_bytes nodes.(i);
      Array.iter
        (fun c ->
          counts.(i) <- counts.(i) + counts.(pre c);
          bytes.(i) <- bytes.(i) + bytes.(pre c))
        nodes.(i).Tree.children
    done;
    let splittable i =
      let nd = nodes.(i) in
      nd.Tree.prod <> None
      &&
      match (Grammar.symbol g nd.Tree.sym).Grammar.s_split with
      | Some min_bytes ->
          float_of_int bytes.(i) >= float_of_int min_bytes *. granularity
      | None -> false
    in
    let in_subtree ~root i = i >= root && i < root + counts.(root) in
    let works =
      ref [ { w_id = 0; w_root = tree; w_parent = None; w_cuts = [] } ]
    in
    let nfrags = ref 1 in
    let cut_bytes cuts under =
      List.fold_left
        (fun a (c : Tree.t) ->
          if in_subtree ~root:under (pre c) then a + bytes.(pre c) else a)
        0 cuts
    in
    let residual w =
      bytes.(pre w.w_root) - cut_bytes w.w_cuts (pre w.w_root)
    in
    let share = float_of_int bytes.(pre tree) /. float_of_int machines in
    let best_candidate w =
      let root_id = pre w.w_root in
      let cut_ids = List.map (fun (c : Tree.t) -> pre c) w.w_cuts in
      let target =
        Float.max (share /. 2.0) (float_of_int (residual w) -. share)
      in
      let best = ref None in
      let i = ref (root_id + 1) in
      let stop = root_id + counts.(root_id) in
      while !i < stop do
        if List.mem !i cut_ids then i := !i + counts.(!i)
        else begin
          if splittable !i then begin
            let res = bytes.(!i) - cut_bytes w.w_cuts !i in
            let score = Float.abs (float_of_int res -. target) in
            match !best with
            | Some (s, _) when s <= score -> ()
            | _ -> best := Some (score, !i)
          end;
          incr i
        end
      done;
      Option.map snd !best
    in
    let continue_splitting = ref true in
    while !nfrags < machines && !continue_splitting do
      let sorted =
        List.sort (fun a b -> compare (residual b) (residual a)) !works
      in
      let rec try_frags = function
        | [] -> continue_splitting := false
        | w :: rest when float_of_int (residual w) <= 1.15 *. share ->
            try_frags rest
        | w :: rest -> (
            match best_candidate w with
            | None -> try_frags rest
            | Some cut_id ->
                let cut_node = nodes.(cut_id) in
                let moved, kept =
                  List.partition
                    (fun (c : Tree.t) -> in_subtree ~root:cut_id (pre c))
                    w.w_cuts
                in
                let nw =
                  {
                    w_id = !nfrags;
                    w_root = cut_node;
                    w_parent = Some w.w_id;
                    w_cuts = moved;
                  }
                in
                List.iter
                  (fun (c : Tree.t) ->
                    List.iter
                      (fun w' ->
                        if w'.w_root.Tree.id = c.Tree.id then
                          w'.w_parent <- Some nw.w_id)
                      !works)
                  moved;
                w.w_cuts <- cut_node :: kept;
                works := nw :: !works;
                incr nfrags)
      in
      try_frags sorted
    done;
    let works = List.sort (fun a b -> compare a.w_id b.w_id) !works in
    let frags =
      Array.of_list
        (List.map
           (fun w ->
             {
               Split.fr_id = w.w_id;
               fr_root = w.w_root;
               fr_parent = w.w_parent;
               fr_bytes = residual w;
             })
           works)
    in
    let cut_to_frag = Hashtbl.create 16 in
    let cut_lists = Array.make (Array.length frags) [] in
    List.iter
      (fun w ->
        List.iter
          (fun (c : Tree.t) ->
            let owner =
              List.find (fun w' -> w'.w_root.Tree.id = c.Tree.id) works
            in
            Hashtbl.replace cut_to_frag c.Tree.id owner.w_id;
            cut_lists.(w.w_id) <- c.Tree.id :: cut_lists.(w.w_id))
          w.w_cuts)
      works;
    { frags; cut_to_frag; cut_lists }

  let owner_of p (node : Tree.t) =
    let rec find i =
      if i >= Array.length p.frags then None
      else begin
        let f = p.frags.(i) in
        let cuts = p.cut_lists.(f.Split.fr_id) in
        let rec go n =
          n == node
          || Array.exists
               (fun (c : Tree.t) -> (not (List.mem c.Tree.id cuts)) && go c)
               n.Tree.children
        in
        if go f.Split.fr_root then Some f.Split.fr_id else find (i + 1)
      end
    in
    find 0

  let pp fmt p =
    let children_of id =
      Array.to_list p.frags
      |> List.filter (fun f -> f.Split.fr_parent = Some id)
      |> List.map (fun f -> f.Split.fr_id)
    in
    let rec go indent id =
      let f = p.frags.(id) in
      Format.fprintf fmt "%sfragment %d: %s, %d bytes (node %d)@,"
        (String.make indent ' ') id f.Split.fr_root.Tree.sym f.Split.fr_bytes
        f.Split.fr_root.Tree.id;
      List.iter (go (indent + 2)) (children_of id)
    in
    Format.fprintf fmt "@[<v>";
    go 0 0;
    Format.fprintf fmt "@]"
end

(* How the ids of an oracle test tree are prepared before decomposing. *)
type ids = Preorder | Permuted | Unnumbered | Duplicate

let ids_name = function
  | Preorder -> "preorder"
  | Permuted -> "permuted"
  | Unnumbered -> "unnumbered"
  | Duplicate -> "duplicate"

(* Preorder ids; unique ids in another order (the shape of an edit
   session's resident tree, whose grafts carry fresh ids); no ids; or
   preorder ids with a few collisions. *)
let prepare ids seed t =
  match ids with
  | Unnumbered -> ()
  | Preorder -> ignore (Tree.number t)
  | Permuted ->
      let n = Tree.number t in
      Tree.iter (fun nd -> nd.Tree.id <- (nd.Tree.id * 7919) mod n + 3) t
  | Duplicate ->
      let n = Tree.number t in
      let st = Random.State.make [| seed |] in
      Tree.iter
        (fun nd ->
          if Random.State.int st 8 = 0 then nd.Tree.id <- Random.State.int st n)
        t

let same_plan g ~machines ~granularity ~ids seed make =
  (* two structurally equal copies: decomposing may renumber its tree *)
  let t_ref = make () and t_new = make () in
  prepare ids seed t_ref;
  prepare ids seed t_new;
  let r = Ref.decompose g t_ref ~machines ~granularity in
  let p = Split.decompose g t_new ~machines ~granularity in
  let frags = Split.fragments p in
  let nodes_ref = Array.of_list (Tree.fold (fun a n -> n :: a) [] t_ref)
  and nodes_new = Array.of_list (Tree.fold (fun a n -> n :: a) [] t_new) in
  let ids_agree = Array.for_all2 (fun a b -> a.Tree.id = b.Tree.id) nodes_ref nodes_new in
  (* [fr_root]s are nodes of different copies: compare their positions *)
  let pos_of nodes (x : Tree.t) =
    let rec go i = if nodes.(i) == x then i else go (i + 1) in
    go 0
  in
  ids_agree
  && Array.length frags = Array.length r.Ref.frags
  && Array.for_all2
       (fun (a : Split.fragment) (b : Split.fragment) ->
         a.Split.fr_id = b.Split.fr_id
         && a.Split.fr_parent = b.Split.fr_parent
         && a.Split.fr_bytes = b.Split.fr_bytes
         && pos_of nodes_new a.Split.fr_root = pos_of nodes_ref b.Split.fr_root)
       frags r.Ref.frags
  && Array.for_all
       (fun (f : Split.fragment) ->
         Split.cuts_of p f.Split.fr_id = r.Ref.cut_lists.(f.Split.fr_id))
       frags
  && Array.for_all
       (fun (nd : Tree.t) ->
         Split.fragment_of_cut_node p nd.Tree.id
         = Hashtbl.find_opt r.Ref.cut_to_frag nd.Tree.id)
       nodes_new
  && Format.asprintf "%a" Split.pp p = Format.asprintf "%a" Ref.pp r
  && Array.for_all2
       (fun a b -> Split.owner_of p a = Ref.owner_of r b)
       nodes_new nodes_ref
  (* nodes outside the plan's tree have no owner, even where their ids
     name nodes inside it *)
  &&
  let other = make () in
  ignore (Tree.number other);
  Tree.fold (fun ok nd -> ok && Split.owner_of p nd = None) true other

let pascal_tree seed () =
  let prog, _ = Pascal.Progen.gen (Random.State.make [| seed |]) Pascal.Progen.small in
  Pascal.Pascal_ag.tree_of_program Pascal.Pascal_ag.grammar prog

let arb_oracle =
  QCheck.make
    ~print:(fun (s, m, k, i) ->
      Printf.sprintf "seed=%d machines=%d granularity=%g ids=%s" s m
        [| 0.5; 1.0; 2.0 |].(k) (ids_name [| Preorder; Permuted; Unnumbered; Duplicate |].(i)))
    QCheck.Gen.(quad (int_bound 10_000) (int_range 1 8) (int_bound 2) (int_bound 3))

let oracle_prop name g make =
  qc ~count:30 name arb_oracle (fun (seed, machines, k, i) ->
      same_plan g ~machines ~granularity:[| 0.5; 1.0; 2.0 |].(k)
        ~ids:[| Preorder; Permuted; Unnumbered; Duplicate |].(i) seed
        (make seed))

let prop_oracle_stackcode =
  oracle_prop "decompose = hashtable oracle (stackcode)" Stackcode_ag.grammar
    (fun seed () -> big_tree seed)

let prop_oracle_pascal =
  oracle_prop "decompose = hashtable oracle (pascal)" Pascal.Pascal_ag.grammar
    pascal_tree

(* Every machine count and granularity on one tree of each kind with
   unique non-preorder ids (an edit session's resident tree), so the nested
   (re-parenting) splits of the larger machine counts are covered whatever
   the random draw; the properties draw all four id preparations. *)
let test_oracle_grid () =
  List.iter
    (fun (name, g, make) ->
      for machines = 1 to 8 do
        List.iter
          (fun granularity ->
            check_bool
              (Printf.sprintf "%s machines=%d granularity=%g" name machines
                 granularity)
              true
              (same_plan g ~machines ~granularity ~ids:Permuted 7 make))
          [ 0.5; 1.0; 2.0 ]
      done)
    [
      ("stackcode", Stackcode_ag.grammar, fun () -> big_tree 7);
      ("pascal", Pascal.Pascal_ag.grammar, pascal_tree 7);
    ]

let suite =
  [
    ( "split",
      [
        Alcotest.test_case "single machine" `Quick test_single_machine_one_fragment;
        Alcotest.test_case "bounded by machines" `Quick
          test_fragments_bounded_by_machines;
        Alcotest.test_case "cuts splittable" `Quick test_cut_roots_are_splittable;
        Alcotest.test_case "cut consistency" `Quick test_cut_consistency;
        Alcotest.test_case "granularity" `Quick test_granularity_disables_splitting;
        Alcotest.test_case "balance" `Quick test_balance_quality;
        Alcotest.test_case "pp" `Quick test_pp_runs;
        prop_residuals_sum_to_total;
        prop_fragments_disjoint;
        Alcotest.test_case "oracle grid" `Quick test_oracle_grid;
        prop_oracle_stackcode;
        prop_oracle_pascal;
      ] );
  ]
