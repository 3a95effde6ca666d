(* Workload inputs: the program each workload compiles and the seeded
   stream of single-literal edits applied to it. *)

open Pascal
open Ast

type kind = Paper | Chain | Repetitive

let kinds =
  [ ("paper", Paper); ("chain", Chain); ("repetitive", Repetitive) ]

let name k = fst (List.find (fun (_, k') -> k' = k) kinds)

(* Why these inputs (recorded in BENCHMARK.json and perfbench/METRICS.md):
   - paper: the paper's measurement program, the generator's default seed.
     Across seeds Progen's paper programs fall into four size classes and
     half of them do not finish within the interpreter's step budget, so
     the run's seed drives the edit stream instead of the program.
   - chain: skewed program whose fat routine is four left-leaning spines of
     [chain] steps; the seed picks the dozen small routines around it.
     1500 steps keep a round of four compile paths near 3 s and the median
     edit near 0.2 s, while the superlinear rope and fire-path terms still
     dominate.
   - repetitive: every routine body repeats one statement shape 25 times
     (half the 50 of the sharing benchmark, so a round takes ~3 s);
     fully deterministic, the seed has no effect on it. *)
let program ~tiny ~seed = function
  | Paper ->
      if tiny then fst (Progen.gen (Random.State.make [| 1987 |]) Progen.small)
      else Progen.paper_program ()
  | Chain -> Progen.skewed_program ~seed ~chain:(if tiny then 60 else 1500) ()
  | Repetitive ->
      if tiny then Progen.repetitive ~routines:2 ~reps:4 ()
      else Progen.repetitive ~routines:6 ~reps:25 ()

(* ---- literal sites ----

   A site is an integer literal that is an operand of an assignment's
   right-hand side (not an array index, not a call argument). Changing one
   is a single-statement edit that keeps the tree's shape. *)

let map_sites prog f =
  let k = ref 0 in
  let rec ex e =
    match e with
    | EInt v ->
        let v' = f !k v in
        incr k;
        EInt v'
    | EBin (o, a, b) ->
        let a = ex a in
        EBin (o, a, ex b)
    | EUn (o, a) -> EUn (o, ex a)
    | EBool _ | EChar _ | ELval _ | ECall _ -> e
  in
  let rec st s =
    match s with
    | SAssign (l, e) -> SAssign (l, ex e)
    | SIf (c, a, b) ->
        let a = List.map st a in
        SIf (c, a, List.map st b)
    | SWhile (c, b) -> SWhile (c, List.map st b)
    | SRepeat (b, c) -> SRepeat (List.map st b, c)
    | SFor (i, a, d, b, body) -> SFor (i, a, d, b, List.map st body)
    | SCase (e, arms, d) ->
        let arms = List.map (fun (l, b) -> (l, List.map st b)) arms in
        SCase (e, arms, Option.map (List.map st) d)
    | SCall _ | SWrite _ | SRead _ -> s
  and blk b =
    let decls =
      List.map
        (function
          | DRoutine r -> DRoutine { r with r_block = blk r.r_block } | d -> d)
        b.b_decls
    in
    { b_decls = decls; b_body = List.map st b.b_body }
  in
  let p = { prog with prog_block = blk prog.prog_block } in
  (p, !k)

let site_count prog = snd (map_sites prog (fun _ v -> v))

let site_value prog i =
  let r = ref 0 in
  ignore (map_sites prog (fun k v -> if k = i then r := v; v));
  !r

(* The seeded edit stream. Sites follow a golden-ratio (Weyl) sequence from
   a seeded start, so every prefix of the stream is spread evenly over the
   program and two runs see alike mixes of cheap and expensive sites; the
   new literal is a seeded value in 1..99 different from the current one. *)
type stream = { st : Random.State.t; n_sites : int; mutable u : float }

let stream ~seed prog =
  let st = Random.State.make [| seed; 0x5eed |] in
  { st; n_sites = site_count prog; u = Random.State.float st 1.0 }

let golden = 0.6180339887498949

let next_edit s prog =
  s.u <- Float.rem (s.u +. golden) 1.0;
  let site = min (s.n_sites - 1) (int_of_float (s.u *. float_of_int s.n_sites)) in
  let old = site_value prog site in
  let rec pick () =
    let v = 1 + Random.State.int s.st 99 in
    if v = old then pick () else v
  in
  let v = pick () in
  fst (map_sites prog (fun k x -> if k = site then v else x))

(* Share of the measured window spent compiling the unedited program; the
   rest edits the resident session. *)
let compile_share = 0.5

(* A from-scratch check of the resident code follows every n-th edit, n
   drawn uniformly from this range (plus one at the final state). *)
let check_every = (10, 20)
