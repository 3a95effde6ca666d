(* agrun — the evaluator generator's driver.

   Loads an attribute-grammar specification (the appendix language),
   generates scanner, LALR(1) parser and evaluators from it, then parses and
   evaluates input sentences, printing the root attributes.

     agrun spec.ag "let x = 2 in 1 + 2 * x ni"
     agrun --builtin-appendix "1 + 2 * 3"
     agrun --machines 3 spec.ag sentence.txt-or-literal *)

open Cmdliner
open Agspec

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_agrun builtin spec_file machines schedule show_plan profile batch
    sentences =
  try
    let t =
      if builtin then Lazy.force Appendix.translator
      else
        match spec_file with
        | Some f -> Compile.translator (Spec_parser.parse (read_file f))
        | None ->
            Printf.eprintf "either a spec file or --builtin-appendix is required\n";
            exit 1
    in
    Printf.eprintf "parser: %d states%s; grammar: %s\n"
      (Lrgen.Lalr.state_count (Compile.tables t))
      (match Lrgen.Lalr.conflicts (Compile.tables t) with
      | [] -> ""
      | cs -> Printf.sprintf " (%d conflicts)" (List.length cs))
      (match Compile.plan t with
      | Some _ -> "ordered (static evaluation)"
      | None -> "not ordered (dynamic evaluation)");
    if show_plan then
      Option.iter
        (fun p ->
          Format.eprintf "%a@." Pag_analysis.Kastens.pp_plan p)
        (Compile.plan t);
    if profile && machines <= 1 then
      Printf.eprintf "agrun: --profile requires --machines >= 2\n";
    let eval src =
      let tree = Compile.parse t src in
      let attrs =
        if machines <= 1 then Compile.evaluate t tree
        else begin
          let schedule =
            match schedule with
            | "steal" -> `Steal
            | "dynamic" -> `Dynamic
            | _ -> `Static
          in
          let r =
            Compile.evaluate_parallel t
              (Pag_parallel.Session.options
                 (Pag_parallel.Session.spec ~schedule ~librarian:false
                    ~provenance:profile machines))
              tree
          in
          (match r.Pag_parallel.Runner.r_prov with
          | (_ :: _) as provs when profile ->
              prerr_string
                (Pag_eval.Causal.render_profile
                   (Pag_eval.Causal.profile (Pag_eval.Causal.build provs)))
          | _ -> ());
          r.Pag_parallel.Runner.r_attrs
        end
      in
      Printf.printf "%s\n" src;
      List.iter
        (fun (name, v) ->
          Printf.printf "  %s = %s\n" name (Pag_core.Value.to_string v))
        attrs
    in
    if batch > 1 && List.length sentences > 1 then begin
      (* incremental session: the first sentence stays resident, the rest
         are edits applied in merged waves of up to [batch] — independent
         dirty cones refire together, conflicting ones serialize. *)
      let open Pag_eval in
      let g = Compile.grammar t in
      let first, rest =
        match sentences with s :: tl -> (s, tl) | [] -> assert false
      in
      let s = Incr.start g (Compile.parse t first) in
      let rec chunks = function
        | [] -> []
        | l ->
            let rec take n = function
              | x :: tl when n > 0 ->
                  let h, r = take (n - 1) tl in
                  (x :: h, r)
              | r -> ([], r)
            in
            let h, r = take batch l in
            h :: chunks r
      in
      List.iter
        (fun srcs ->
          let wv = Incr.edit_batch s (List.map (Compile.parse t) srcs) in
          Printf.eprintf
            "batch of %d: %d wave(s), %d conflict(s), dirty %d refired %d \
             cutoff %d%s\n"
            wv.Incr.wv_edits wv.Incr.wv_waves wv.Incr.wv_conflicts
            wv.Incr.wv_dirty wv.Incr.wv_refired wv.Incr.wv_cutoff
            (if wv.Incr.wv_fallbacks > 0 then
               Printf.sprintf " (%d fallback rebuilds)" wv.Incr.wv_fallbacks
             else ""))
        (chunks rest);
      (match List.rev sentences with
      | last :: _ -> Printf.printf "%s\n" last
      | [] -> ());
      List.iter
        (fun (name, v) ->
          Printf.printf "  %s = %s\n" name (Pag_core.Value.to_string v))
        (Store.root_attrs (Incr.store s))
    end
    else List.iter eval sentences;
    exit 0
  with
  | Spec_parser.Error (line, msg) ->
      Printf.eprintf "spec:%d: %s\n" line msg;
      exit 1
  | Compile.Error msg | Pag_core.Grammar.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | Compile.Scan_error msg ->
      Printf.eprintf "scan error: %s\n" msg;
      exit 1
  | Pag_eval.Engine.Cycle msg | Pag_parallel.Worker.Stuck msg ->
      Printf.eprintf "error: circular attribute dependencies: %s\n" msg;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

let builtin_arg =
  Arg.(
    value & flag
    & info [ "builtin-appendix" ]
        ~doc:"Use the built-in specification from the paper's appendix.")

let spec_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"SPEC" ~doc:"Attribute-grammar specification file.")

let machines_arg =
  Arg.(value & opt int 1 & info [ "machines"; "m" ] ~docv:"N" ~doc:"Evaluator machines.")

let schedule_arg =
  Arg.(
    value
    & opt
        (enum [ ("static", "static"); ("dynamic", "dynamic"); ("steal", "steal") ])
        "static"
    & info [ "schedule" ]
        ~doc:
          "Instance schedule for parallel runs: static (Split placement), \
           dynamic (all-dynamic classic protocol) or steal (work-stealing \
           deques over the unified engine).")

let plan_arg =
  Arg.(value & flag & info [ "plan" ] ~doc:"Print the ordered evaluation plan.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Record per-firing provenance during parallel evaluation and \
           print the critical-path profile (longest dependent rule chain \
           vs makespan, rule/machine blame) to stderr.")

let batch_edits_arg =
  Arg.(
    value & opt int 1
    & info [ "batch-edits" ] ~docv:"N"
        ~doc:
          "Treat the sentences as one incremental session: the first stays \
           resident and the rest apply as edits in merged re-evaluation \
           waves of up to $(docv) (independent dirty cones refire \
           together; conflicting edits serialize into follow-up waves). \
           Prints the final root attributes. Default 1 = evaluate each \
           sentence from scratch.")

let sentences_arg =
  Arg.(value & pos_right 0 string [] & info [] ~docv:"SENTENCE" ~doc:"Sentences to evaluate.")

let cmd =
  let doc = "generate and run an attribute-grammar translator" in
  Cmd.v
    (Cmd.info "agrun" ~doc)
    Term.(
      const run_agrun $ builtin_arg $ spec_arg $ machines_arg $ schedule_arg
      $ plan_arg $ profile_arg $ batch_edits_arg $ sentences_arg)

let () = exit (Cmd.eval cmd)
