open Pag_util

let qc ?(count = 200) name gen prop = Qc_seed.qc ~count name gen prop

(* Generator for ropes with known flattened content. *)
let rope_gen =
  let open QCheck.Gen in
  let leaf = map Rope.of_string (string_size ~gen:printable (int_bound 12)) in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (3, map2 Rope.concat (tree (depth - 1)) (tree (depth - 1)));
        ]
  in
  tree 6

let arb_rope = QCheck.make ~print:Rope.to_string rope_gen

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_empty () =
  check_str "empty flattens to \"\"" "" (Rope.to_string Rope.empty);
  check_int "empty length" 0 (Rope.length Rope.empty);
  check_bool "is_empty" true (Rope.is_empty Rope.empty)

let test_of_string () =
  check_str "round trip" "hello" (Rope.to_string (Rope.of_string "hello"));
  check_int "length" 5 (Rope.length (Rope.of_string "hello"))

let test_concat_basic () =
  let r = Rope.concat (Rope.of_string "foo") (Rope.of_string "bar") in
  check_str "foo ^ bar" "foobar" (Rope.to_string r);
  check_int "length" 6 (Rope.length r)

let test_concat_empty_identity () =
  let r = Rope.of_string "x" in
  check_bool "left identity" true (Rope.equal r (Rope.concat Rope.empty r));
  check_bool "right identity" true (Rope.equal r (Rope.concat r Rope.empty));
  (* identity concat must not grow the tree *)
  check_int "no extra depth" (Rope.depth r)
    (Rope.depth (Rope.concat Rope.empty r))

let test_concat_list () =
  let parts = [ "a"; "bb"; "ccc"; "dddd"; "e" ] in
  let r = Rope.concat_list (List.map Rope.of_string parts) in
  check_str "concat_list" (String.concat "" parts) (Rope.to_string r)

let test_concat_list_balanced () =
  let n = 1024 in
  let parts = List.init n (fun _ -> Rope.of_string "x") in
  let r = Rope.concat_list parts in
  check_int "length" n (Rope.length r);
  check_bool "depth is logarithmic" true (Rope.depth r <= 12)

let test_deep_left_lean () =
  (* A pathological left-leaning rope must not blow the stack. *)
  let n = 200_000 in
  let r = ref Rope.empty in
  for _ = 1 to n do
    r := Rope.concat !r (Rope.of_string "a")
  done;
  check_int "length" n (Rope.length !r);
  check_int "flattened length" n (String.length (Rope.to_string !r))

let test_deep_right_lean () =
  let n = 200_000 in
  let r = ref Rope.empty in
  for _ = 1 to n do
    r := Rope.concat (Rope.of_string "b") !r
  done;
  check_int "length" n (Rope.length !r);
  check_bool "equal to itself" true (Rope.equal !r !r)

let test_iter_chunks_order () =
  let r =
    Rope.concat
      (Rope.concat (Rope.of_string "ab") (Rope.of_string "cd"))
      (Rope.of_string "ef")
  in
  let buf = Buffer.create 8 in
  Rope.iter_chunks (Buffer.add_string buf) r;
  check_str "left-to-right" "abcdef" (Buffer.contents buf)

let test_leaf_count () =
  let r = Rope.concat (Rope.of_string "a") (Rope.of_string "") in
  (* empty operand is dropped by concat *)
  check_int "leaf count skips empties" 1 (Rope.leaf_count r)

let test_compare_prefix () =
  let a = Rope.of_string "abc" and b = Rope.of_string "abcd" in
  check_bool "prefix is smaller" true (Rope.compare a b < 0);
  check_bool "reverse" true (Rope.compare b a > 0)

let test_compare_chunk_boundaries () =
  (* Same content, different tree shape: compare must be 0. *)
  let a = Rope.concat (Rope.of_string "ab") (Rope.of_string "cde")
  and b = Rope.concat (Rope.of_string "abcd") (Rope.of_string "e") in
  check_int "equal content across shapes" 0 (Rope.compare a b);
  check_bool "equal" true (Rope.equal a b)

let test_output () =
  let file = Filename.temp_file "rope" ".txt" in
  let oc = open_out file in
  Rope.output oc (Rope.concat (Rope.of_string "he") (Rope.of_string "llo"));
  close_out oc;
  let ic = open_in file in
  let line = input_line ic in
  close_in ic;
  Sys.remove file;
  check_str "output" "hello" line

let prop_flatten_concat =
  qc "to_string distributes over concat"
    QCheck.(pair arb_rope arb_rope)
    (fun (a, b) ->
      Rope.to_string (Rope.concat a b) = Rope.to_string a ^ Rope.to_string b)

let prop_length =
  qc "length = flattened length" arb_rope (fun r ->
      Rope.length r = String.length (Rope.to_string r))

let prop_equal_content =
  qc "equal iff same content"
    QCheck.(pair arb_rope arb_rope)
    (fun (a, b) -> Rope.equal a b = (Rope.to_string a = Rope.to_string b))

let prop_compare_content =
  qc "compare agrees with string compare"
    QCheck.(pair arb_rope arb_rope)
    (fun (a, b) ->
      Stdlib.compare
        (Rope.compare a b > 0, Rope.compare a b < 0)
        ( String.compare (Rope.to_string a) (Rope.to_string b) > 0,
          String.compare (Rope.to_string a) (Rope.to_string b) < 0 )
      = 0)

let prop_assoc =
  qc "concat is associative on content"
    QCheck.(triple arb_rope arb_rope arb_rope)
    (fun (a, b, c) ->
      Rope.equal
        (Rope.concat (Rope.concat a b) c)
        (Rope.concat a (Rope.concat b c)))

(* Pairs of ropes of mixed shape — single leaves, and concatenations of
   pieces long enough that short-leaf merging keeps [Cat] nodes — over a
   two-letter alphabet {a, z}, the second content derived from the first (equal,
   one letter flipped, a prefix, or extended) so comparisons often run
   deep before they differ. *)
let mixed_pair_gen =
  let open QCheck.Gen in
  let shape s =
    list_size (int_bound 6) (int_bound (String.length s)) >|= fun cuts ->
    let cuts =
      List.sort_uniq compare
        (List.filter (fun c -> c > 0 && c < String.length s) cuts)
    in
    let pieces, last =
      List.fold_left
        (fun (acc, lo) c -> (String.sub s lo (c - lo) :: acc, c))
        ([], 0) cuts
    in
    let pieces =
      List.rev (String.sub s last (String.length s - last) :: pieces)
    in
    List.fold_left (fun r p -> Rope.concat r (Rope.of_string p)) Rope.empty pieces
  in
  frequency [ (1, int_bound 4); (3, int_range 100 400) ] >>= fun len ->
  string_size ~gen:(oneofl [ 'a'; 'z' ]) (return len) >>= fun a ->
  int_bound (max 1 len) >>= fun k ->
  oneofl
    [
      a;
      (if len = 0 then "z"
       else
         String.mapi
           (fun i c -> if i = k mod len then (if c = 'a' then 'z' else 'a') else c)
           a);
      String.sub a 0 (min k len);
      a ^ "a";
    ]
  >>= fun b -> pair (shape a) (shape b)

let prop_compare_exact =
  qc "compare = String.compare of the contents (mixed shapes)"
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "%S (%d leaves) vs %S (%d leaves)" (Rope.to_string a)
           (Rope.leaf_count a) (Rope.to_string b) (Rope.leaf_count b))
       mixed_pair_gen)
    (fun (a, b) ->
      let sa = Rope.to_string a and sb = Rope.to_string b in
      Rope.compare a b = String.compare sa sb
      && Rope.compare b a = String.compare sb sa
      && Rope.equal a b = String.equal sa sb)

let suite =
  [
    ( "rope",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "of_string" `Quick test_of_string;
        Alcotest.test_case "concat basic" `Quick test_concat_basic;
        Alcotest.test_case "concat identity" `Quick test_concat_empty_identity;
        Alcotest.test_case "concat_list" `Quick test_concat_list;
        Alcotest.test_case "concat_list balanced" `Quick
          test_concat_list_balanced;
        Alcotest.test_case "deep left lean" `Quick test_deep_left_lean;
        Alcotest.test_case "deep right lean" `Quick test_deep_right_lean;
        Alcotest.test_case "iter order" `Quick test_iter_chunks_order;
        Alcotest.test_case "leaf count" `Quick test_leaf_count;
        Alcotest.test_case "compare prefix" `Quick test_compare_prefix;
        Alcotest.test_case "compare shapes" `Quick
          test_compare_chunk_boundaries;
        Alcotest.test_case "output" `Quick test_output;
        prop_flatten_concat;
        prop_length;
        prop_equal_content;
        prop_compare_content;
        prop_assoc;
        prop_compare_exact;
      ] );
  ]
