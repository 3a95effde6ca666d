(* Real-clock benchmark of the Pascal-to-VAX compiler.

   One process, one caller, closed loop: each compile or edit starts only
   after the previous one returned. A run compiles the workload's program
   through the four compile paths and applies a seeded stream of
   single-literal edits to a resident session, round after round, for
   [--seconds]. Outputs are checked outside the timed intervals.

     sh perfbench/run.sh --workload paper --seed 1 --seconds 40 --trace 0

   [--trace 0] prints the end-to-end metrics, [--trace 1] the per-layer
   metrics of a separate traced run (spans opened around the benchmark's
   own calls into each layer). The last line of standard output is one
   JSON object: correct, attempted, failed, metrics. METRICS.md lists every
   metric with its unit, layer and the end-to-end metric it should move. *)

open Pascal
module Session = Pag_parallel.Session
module Runner = Pag_parallel.Runner
module Store = Pag_eval.Store

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let mb x = x /. 1048576.

(* -------------------------------------------------------- configuration *)

let g = Pascal_ag.grammar

let nproc = Domain.recommended_domain_count ()

(* the paper's machine count; sim is pagc's default parallel transport *)
let sim_machines = 6

let par_opts =
  { Runner.default_options with machines = nproc; phase_label = Driver.phase_label }

let sim_opts =
  {
    Runner.default_options with
    machines = sim_machines;
    phase_label = Driver.phase_label;
  }

(* pagc --edit-session defaults: one machine, every knob at its default *)
let session_spec = Session.spec ~phase_label:Driver.phase_label 1

type path = Seq | Par | Sim | Shared

let path_name = function
  | Seq -> "seq"
  | Par -> "par"
  | Sim -> "sim"
  | Shared -> "shared"

(* ------------------------------------------------------------ operations

   Untraced compiles call the Driver functions pagc uses. Traced compiles
   make the same calls one layer at a time, each inside a span. Both
   return the unoptimized and the peephole-optimized output, plus (traced)
   the tree and root attributes for the base counts. *)

let compile_untraced path src =
  let ast = Parser.parse_program src in
  let c =
    match path with
    | Seq -> Driver.compile ast
    | Shared -> Driver.compile ~dag:true ast
    | Par -> snd (Driver.compile_parallel_domains par_opts ast)
    | Sim -> snd (Driver.compile_parallel_sim sim_opts ast)
  in
  (c, Driver.optimize c)

let compile_traced t path src =
  let sp name f = Span.with_span t name f in
  sp ("compile." ^ path_name path) (fun _ ->
      let ast = sp "parse" (fun _ -> Parser.parse_program src) in
      let tree = sp "tree" (fun _ -> Pascal_ag.tree_of_program g ast) in
      let plan = Lazy.force Driver.plan in
      let attrs =
        match path with
        | Seq | Shared ->
            sp
              (if path = Seq then "eval" else "shared.eval")
              (fun s ->
                let store, st =
                  Pag_eval.Static_eval.eval ~hashcons:(path = Shared) plan tree
                in
                Span.count s "rules" (float_of_int st.Pag_eval.Static_eval.evals);
                Store.root_attrs store)
        | Par ->
            sp "domains" (fun s ->
                let r = Runner.run_domains par_opts g (Some plan) tree in
                let idle =
                  Array.fold_left
                    (fun a w -> a +. w.Pag_parallel.Worker.ws_idle_wait)
                    0. r.Runner.r_worker_stats
                in
                Span.count s "idle_wait_s" idle;
                Span.count s "dynamic_fraction" r.Runner.r_dynamic_fraction;
                r.Runner.r_attrs)
        | Sim ->
            sp "sim" (fun s ->
                let r = Runner.run_sim sim_opts g (Some plan) tree in
                Span.count s "virtual_s" r.Runner.r_time;
                Span.count s "messages" (float_of_int r.Runner.r_messages);
                Span.count s "bytes" (float_of_int r.Runner.r_bytes);
                r.Runner.r_attrs)
      in
      let c =
        sp "emit" (fun _ ->
            {
              Driver.c_asm = Pascal_ag.code_of_attrs attrs;
              c_errors = Pascal_ag.errors_of_attrs attrs;
            })
      in
      (c, sp "peephole" (fun _ -> Driver.optimize c), tree, attrs))

let resident_code es =
  Pascal_ag.code_of_attrs (Store.root_attrs (Session.store es))

(* Edited source text to refreshed assembly: re-parse, diff and refire in
   the resident session, emit. This is the pagc --edit-session path, which
   does not run the peephole optimizer. *)
let edit tr es src =
  match tr with
  | None ->
      let tree = Pascal_ag.tree_of_program g (Parser.parse_program src) in
      let r = Session.edit es tree in
      (r, resident_code es)
  | Some t ->
      let sp name f = Span.with_span t name f in
      sp "edit" (fun _ ->
          let tree =
            sp "edit.reparse" (fun _ ->
                Pascal_ag.tree_of_program g (Parser.parse_program src))
          in
          let r =
            sp "edit.apply" (fun s ->
                let r = Session.edit es tree in
                Span.count s "dirty" (float_of_int r.Session.er_dirty);
                Span.count s "refired" (float_of_int r.Session.er_refired);
                r)
          in
          (r, sp "edit.emit" (fun _ -> resident_code es)))

let open_session src =
  Session.open_session session_spec g
    (Pascal_ag.tree_of_program g (Parser.parse_program src))

(* ------------------------------------------------------------ set-up time

   setup_s is the time a fresh process needs to become ready to compile:
   this executable re-run with --setup-probe forces the grammar (module
   initialisation) and the Kastens plan. *)

let setup_probe () = ignore (Lazy.force Driver.plan)

(* Probes per batch. A probe takes ~15 ms; at that size one spawn's jitter
   is large and the host's speed drifts over seconds, so untraced runs
   probe in batches: one before the measured window and one after every
   compile round. setup_s is the median over all of them. *)
let probe_batch = 8

let time_setup_probe () =
  let t0 = now () in
  match
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--setup-probe" |]
      Unix.stdin Unix.stdout Unix.stderr
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("set-up probe could not start: " ^ Unix.error_message e)
  | pid ->
      let _, status = Unix.waitpid [] pid in
      let dt = now () -. t0 in
      if status = Unix.WEXITED 0 then Ok dt else Error "set-up probe process failed"

(* ----------------------------------------------------------- a run's log *)

type log = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few, most recent first *)
  samples : (string, float list) Hashtbl.t;  (** measured samples *)
  base : (string, float) Hashtbl.t;  (** deterministic counts *)
}

let add log k v =
  Hashtbl.replace log.samples k
    (v :: Option.value ~default:[] (Hashtbl.find_opt log.samples k))

let samples log k = Option.value ~default:[] (Hashtbl.find_opt log.samples k)

let fail log msg =
  log.failed <- log.failed + 1;
  if List.length log.failures < 20 then log.failures <- msg :: log.failures

(* Run [f] as one attempted operation; an exception counts as a failure. *)
let attempt log what f =
  log.attempted <- log.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
      fail log (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None

let masked_equal a b = String.equal (Driver.mask_labels a) (Driver.mask_labels b)

let instr_count asm = Peephole.instr_count (Vax.Asm_parser.parse asm)

(* The optimized code of the base program, run on the VAX simulator, must
   print what the reference interpreter prints for the same AST. *)
let check_against_interp log src (o : Driver.compiled) =
  log.attempted <- log.attempted + 1;
  match (Vax.Machine.run_text o.Driver.c_asm, Interp.run (Parser.parse_program src)) with
  | Error e, _ -> fail log ("VAX run failed: " ^ Vax.Machine.error_to_string e)
  | _, Error e ->
      fail log ("reference interpreter failed: " ^ Interp.error_to_string e)
  | Ok out, Ok ref_out ->
      if String.equal ref_out out.Vax.Machine.output then
        Hashtbl.replace log.base "vax_steps" (float_of_int out.Vax.Machine.steps)
      else fail log "VAX output differs from the reference interpreter"

let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun n -> n)
          | _ -> None)
        (String.split_on_char '\n' s)
  | exception Sys_error _ -> None

(* ------------------------------------------------------------------ run *)

type cfg = {
  kind : Workload.kind;
  seed : int;
  seconds : float;
  traced : bool;
  tiny : bool;
}

type outcome = {
  log : log;
  tr : Span.t option;
  rounds : int;
  window : float;
}

(* Every run makes at least this many compile rounds and edits, so each
   metric has samples and the edit counts cover the same edits. *)
let min_rounds = 2

let min_edits = 5

let run cfg =
  let log =
    {
      attempted = 0;
      failed = 0;
      failures = [];
      samples = Hashtbl.create 64;
      base = Hashtbl.create 64;
    }
  in
  let tr = if cfg.traced then Some (Span.create ()) else None in
  let st = Random.State.make [| cfg.seed; 0x0bde |] in
  let prog0 = Workload.program ~tiny:cfg.tiny ~seed:cfg.seed cfg.kind in
  let src0 = Pp.program_to_string prog0 in
  let set k v = Hashtbl.replace log.base k v in
  let probe_setup () =
    if not cfg.traced then
      for _ = 1 to probe_batch do
        match time_setup_probe () with
        | Ok dt -> add log "setup_s" dt
        | Error m -> fail log m
      done
  in
  probe_setup ();
  ignore (Lazy.force Driver.plan);
  (* warm-up: the first compile in a process pays for heap growth *)
  ignore
    (attempt log "compile.seq (warm-up)" (fun () ->
         match tr with
         | None -> ignore (compile_untraced Seq src0)
         | Some t -> ignore (compile_traced t Seq src0)));
  Option.iter (fun t -> t.Span.warm <- false) tr;
  let t_start = now () in
  (* ---- compile phase: the unedited program through the four paths, in
     a fixed order, round after round; no session is resident yet *)
  let base_opt = ref None in
  let compile_round ~first =
    let outs = ref [] in
    List.iter
      (fun path ->
        let what = "compile." ^ path_name path in
        let a0 = Gc.allocated_bytes () in
        let t0 = now () in
        let r =
          attempt log what (fun () ->
              match tr with
              | None ->
                  let c, o = compile_untraced path src0 in
                  (c, o, None)
              | Some t ->
                  let c, o, tree, attrs = compile_traced t path src0 in
                  (c, o, Some (tree, attrs)))
        in
        let dt = now () -. t0 and alloc = Gc.allocated_bytes () -. a0 in
        match r with
        | None -> ()
        | Some (c, _, _) when c.Driver.c_errors <> [] ->
            fail log
              (what ^ ": semantic errors: " ^ String.concat "; " c.Driver.c_errors)
        | Some (c, o, traced) ->
            outs := (path, o) :: !outs;
            add log (path_name path ^ "_compile_s") dt;
            if path = Seq then add log "alloc_mb" (mb alloc);
            if first && path = Seq then begin
              base_opt := Some o;
              set "asm_instrs" (float_of_int (instr_count o.Driver.c_asm));
              check_against_interp log src0 o;
              Option.iter
                (fun (tree, attrs) ->
                  set "tree.nodes" (float_of_int (Pag_core.Tree.size tree));
                  set "asm.bytes" (float_of_int (String.length c.Driver.c_asm));
                  set "peephole.instrs_in" (float_of_int (instr_count c.Driver.c_asm));
                  match List.assoc_opt "code" attrs with
                  | Some v ->
                      let r =
                        Pag_core.Codestr.to_rope
                          (Pag_core.Codestr.of_value ~ctx:"code" v)
                      in
                      set "rope.depth" (float_of_int (Pag_util.Rope.depth r));
                      set "rope.leaves" (float_of_int (Pag_util.Rope.leaf_count r))
                  | None -> fail log "no code attribute at the root")
                traced
            end)
      [ Seq; Shared; Sim; Par ];
    (match List.assoc_opt Seq !outs with
    | None -> ()
    | Some o ->
        List.iter
          (fun (path, o') ->
            if not (masked_equal o.Driver.c_asm o'.Driver.c_asm) then
              fail log (path_name path ^ " output differs from the sequential output"))
          !outs);
    (* traced runs: the layers no compile path times on its own, and the
       untraced compile the tracing overhead is measured against *)
    Option.iter
      (fun t ->
        let sp name f = Span.with_span t name f in
        sp "kastens" (fun _ -> ignore (Pag_analysis.Kastens.analyze g));
        Option.iter
          (fun (o : Driver.compiled) ->
            sp "vax" (fun _ -> ignore (Vax.Machine.run_text o.Driver.c_asm)))
          !base_opt;
        let tree = Pascal_ag.tree_of_program g (Parser.parse_program src0) in
        ignore (Pag_core.Tree.number tree);
        let enc =
          sp "split.encode" (fun s ->
              let plan =
                Pag_parallel.Split.decompose g tree ~machines:nproc
                  ~granularity:par_opts.Runner.granularity
              in
              let enc =
                Array.map (Pag_parallel.Split.encode plan)
                  (Pag_parallel.Split.fragments plan)
              in
              Span.count s "fragments" (float_of_int (Array.length enc));
              Span.count s "bytes"
                (float_of_int
                   (Array.fold_left (fun a e -> a + String.length e) 0 enc));
              enc)
        in
        sp "split.decode" (fun _ ->
            Array.iter (fun e -> ignore (Pag_parallel.Split.decode g e)) enc);
        let t0 = now () in
        match attempt log "compile.seq (untraced)" (fun () -> compile_untraced Seq src0) with
        | Some (_, o) ->
            add log "untraced_seq_compile_s" (now () -. t0);
            Option.iter
              (fun o' ->
                if not (String.equal o.Driver.c_asm o'.Driver.c_asm) then
                  fail log "traced sequential output differs from the untraced one")
              (List.assoc_opt Seq !outs)
        | None -> ())
      tr
  in
  let compile_budget = Workload.compile_share *. cfg.seconds in
  let rounds = ref 0 and last = ref 0. in
  while !rounds < min_rounds || now () -. t_start +. !last <= compile_budget do
    let t0 = now () in
    compile_round ~first:(!rounds = 0);
    last := now () -. t0;
    incr rounds;
    probe_setup ()
  done;
  (* ---- edit phase: the program resident in a session, a seeded stream
     of edits; the resident code is checked against a from-scratch compile
     at seeded intermediate states and at the final state *)
  let es =
    match tr with
    | None -> open_session src0
    | Some t -> Span.with_span t "session.open" (fun _ -> open_session src0)
  in
  let stream = Workload.stream ~seed:cfg.seed prog0 in
  let prog = ref prog0 and src = ref src0 in
  let check what =
    match attempt log what (fun () -> compile_untraced Seq !src) with
    | Some (c, _) ->
        if not (masked_equal c.Driver.c_asm (resident_code es)) then
          fail log (what ^ ": resident code differs from a from-scratch compile")
    | None -> ()
  in
  let lo, hi = Workload.check_every in
  let draw () = lo + Random.State.int st (hi - lo + 1) in
  let next_check = ref (draw ()) in
  let edits = ref 0 and last = ref 0. in
  while !edits < min_edits || now () -. t_start +. !last <= cfg.seconds do
    prog := Workload.next_edit stream !prog;
    src := Pp.program_to_string !prog;
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    let r = attempt log "edit" (fun () -> edit tr es !src) in
    last := now () -. t0;
    let alloc = Gc.allocated_bytes () -. a0 in
    incr edits;
    Option.iter
      (fun ((r : Session.edit_report), _) ->
        add log "edit_ms" (!last *. 1e3);
        add log "edit_alloc_mb" (mb alloc);
        if !edits <= min_edits then begin
          let bump k v =
            set k (v +. Option.value ~default:0. (Hashtbl.find_opt log.base k))
          in
          bump "edit.dirty" (float_of_int r.er_dirty);
          bump "edit.refired" (float_of_int r.er_refired);
          bump "edit.cutoff" (float_of_int r.er_cutoff)
        end;
        (* over the whole edit phase: a rebuild may come late in the stream *)
        add log "edit_fallback" (if r.er_fallback then 1. else 0.))
      r;
    decr next_check;
    if !next_check = 0 then begin
      check "check";
      next_check := draw ()
    end
  done;
  let window = now () -. t_start in
  check "final check";
  { log; tr; rounds = !rounds; window }

(* -------------------------------------------------------------- report *)

let base log k = Option.value ~default:nan (Hashtbl.find_opt log.base k)

let end_to_end o =
  let l = o.log in
  let med k = median (samples l k) in
  let pct q = quantile q (samples l "edit_ms") in
  [
    ("setup_s", "s", med "setup_s");
    ("seq_compile_s", "s", med "seq_compile_s");
    ("par_compile_s", "s", med "par_compile_s");
    ("sim_compile_s", "s", med "sim_compile_s");
    ("shared_compile_s", "s", med "shared_compile_s");
    ("alloc_mb", "MB", med "alloc_mb");
    ("edit_alloc_mb", "MB", med "edit_alloc_mb");
    ( "peak_rss_mb",
      "MB",
      match vm_hwm_kb () with Some kb -> float_of_int kb /. 1024. | None -> nan );
    ("asm_instrs", "count", base l "asm_instrs");
    ("vax_steps", "count", base l "vax_steps");
    ("edit_ms.p50", "ms", pct 0.5);
    ("edit_ms.p75", "ms", pct 0.75);
  ]

let per_layer o t =
  let l = o.log in
  let all = Span.self_times t in
  let measured = List.filter (fun (sp, _) -> not sp.Span.sp_warm) all in
  let by name = List.filter (fun (sp, _) -> sp.Span.sp_name = name) measured in
  let self name = median (List.map snd (by name)) in
  let dur name = median (List.map (fun (sp, _) -> Span.dur sp) (by name)) in
  let alloc name = median (List.map (fun (sp, _) -> mb sp.Span.sp_alloc) (by name)) in
  let gcs name f = median (List.map (fun (sp, _) -> float_of_int (f sp)) (by name)) in
  let count name key =
    median (List.filter_map (fun (sp, _) -> List.assoc_opt key sp.Span.sp_counts) (by name))
  in
  (* deterministic counts: the first span of the layer, which ran on the
     unedited program *)
  let first_count name key =
    match List.find_opt (fun (sp, _) -> sp.Span.sp_name = name) all with
    | Some (sp, _) -> Option.value ~default:nan (List.assoc_opt key sp.Span.sp_counts)
    | None -> nan
  in
  let open_s =
    match List.find_opt (fun (sp, _) -> sp.Span.sp_name = "session.open") all with
    | Some (sp, _) -> Span.dur sp
    | None -> nan
  in
  let eval_rules = first_count "eval" "rules" in
  let shared_rules = first_count "shared.eval" "rules" in
  let untraced = median (samples l "untraced_seq_compile_s") in
  [
    ("parse.s", "s", self "parse");
    ("parse.alloc_mb", "MB", alloc "parse");
    ("tree.s", "s", self "tree");
    ("tree.alloc_mb", "MB", alloc "tree");
    ("tree.nodes", "count", base l "tree.nodes");
    ("kastens.s", "s", self "kastens");
    ("eval.s", "s", self "eval");
    ("eval.alloc_mb", "MB", alloc "eval");
    ("eval.minor_gcs", "count", gcs "eval" (fun sp -> sp.Span.sp_minor));
    ("eval.major_gcs", "count", gcs "eval" (fun sp -> sp.Span.sp_major));
    ("eval.rules", "count", eval_rules);
    ("eval.bytes_per_rule", "B", alloc "eval" *. 1048576. /. eval_rules);
    ("shared.eval_s", "s", self "shared.eval");
    ("shared.rules", "count", shared_rules);
    ("shared.fired_ratio", "ratio", shared_rules /. eval_rules);
    ("emit.s", "s", self "emit");
    ("rope.depth", "count", base l "rope.depth");
    ("rope.leaves", "count", base l "rope.leaves");
    ("asm.bytes", "B", base l "asm.bytes");
    ("peephole.s", "s", self "peephole");
    ("peephole.alloc_mb", "MB", alloc "peephole");
    ("peephole.instrs_in", "count", base l "peephole.instrs_in");
    ("vax.s", "s", self "vax");
    ("split.s", "s", self "split.encode");
    ("split.decode_s", "s", self "split.decode");
    ("split.fragments", "count", first_count "split.encode" "fragments");
    ("split.bytes", "B", first_count "split.encode" "bytes");
    ("domains.s", "s", self "domains");
    ("domains.idle_wait_s", "s", count "domains" "idle_wait_s");
    ("domains.dynamic_fraction", "ratio", count "domains" "dynamic_fraction");
    ("sim.virtual_s", "s", first_count "sim" "virtual_s");
    ("sim.messages", "count", first_count "sim" "messages");
    ("sim.bytes", "B", first_count "sim" "bytes");
    ("session.open_s", "s", open_s);
    ("edit.reparse_s", "s", self "edit.reparse");
    ("edit.apply_s", "s", self "edit.apply");
    ("edit.emit_s", "s", self "edit.emit");
    ("edit.dirty", "count", base l "edit.dirty");
    ("edit.refired", "count", base l "edit.refired");
    ("edit.cutoff", "count", base l "edit.cutoff");
    ("edit.incremental_share", "ratio", 1. -. mean (samples l "edit_fallback"));
    ("edit.refired_per_dirty", "ratio", base l "edit.refired" /. base l "edit.dirty");
    ("trace.seq_compile_s", "s", dur "compile.seq");
    ("trace.overhead_s", "s", dur "compile.seq" -. untraced);
    ("trace.unattributed_s", "s", self "compile.seq");
  ]

(* Self-time reconciliation: for every operation kind, the measured root
   spans' total equals the children's self times plus the root's own
   (unattributed) remainder. *)
let print_self_times t =
  let measured = List.filter (fun (sp, _) -> not sp.Span.sp_warm) (Span.self_times t) in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (sp, _) -> Hashtbl.replace by_id sp.Span.sp_id sp) measured;
  let roots =
    List.sort_uniq compare
      (List.filter_map
         (fun (sp, _) -> if sp.Span.sp_parent < 0 then Some sp.Span.sp_name else None)
         measured)
  in
  print_endline "self time by layer (measured rounds, seconds summed over spans):";
  List.iter
    (fun root ->
      let total = ref 0. and rest = ref 0. and n = ref 0 in
      let kids = Hashtbl.create 8 in
      List.iter
        (fun (sp, self) ->
          if sp.Span.sp_parent < 0 && sp.Span.sp_name = root then begin
            incr n;
            total := !total +. Span.dur sp;
            rest := !rest +. self
          end
          else
            match Hashtbl.find_opt by_id sp.Span.sp_parent with
            | Some p when p.Span.sp_name = root && p.Span.sp_parent < 0 ->
                let k = sp.Span.sp_name in
                Hashtbl.replace kids k (self +. Option.value ~default:0. (Hashtbl.find_opt kids k))
            | _ -> ())
        measured;
      Printf.printf "  %-16s %3d spans  total %9.4f\n" root !n !total;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) kids []
      |> List.sort compare
      |> List.iter (fun (k, v) -> Printf.printf "    %-22s self %9.4f\n" k v);
      Printf.printf "    %-22s self %9.4f\n"
        (if Hashtbl.length kids = 0 then "(leaf)" else "(unattributed)")
        !rest)
    roots

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let report cfg o =
  let metrics =
    match o.tr with None -> end_to_end o | Some t -> per_layer o t
  in
  let l = o.log in
  Printf.printf "workload %s  seed %d  %s  rounds %d  window %.2f s  edits %d\n"
    (Workload.name cfg.kind) cfg.seed
    (if cfg.traced then "traced" else "untraced")
    o.rounds o.window
    (List.length (samples l "edit_ms"));
  List.iter (fun (n, u, v) -> Printf.printf "  %-26s %14.6g %s\n" n v u) metrics;
  Hashtbl.fold (fun k v acc -> if k = "edit_fallback" then acc else (k, v) :: acc) l.samples []
  |> List.sort compare
  |> List.iter (fun (k, v) ->
         Printf.printf "  samples %-24s n=%-4d median %-10.6g min %-10.6g max %.6g\n" k
           (List.length v) (median v) (List.fold_left min infinity v)
           (List.fold_left max neg_infinity v));
  Printf.printf "  %-26s %14.6g %s  (%d failed of %d attempted)\n" "fail_rate"
    (float_of_int l.failed /. float_of_int (max 1 l.attempted))
    "ratio" l.failed l.attempted;
  (let f = samples l "edit_fallback" in
   Printf.printf "  %-26s %14d count  (of %d edits, whole edit phase)\n" "edit.fallbacks"
     (int_of_float (List.fold_left ( +. ) 0. f))
     (List.length f));
  List.iter (fun m -> Printf.printf "  FAILURE: %s\n" m) (List.rev l.failures);
  Option.iter print_self_times o.tr;
  let missing = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.printf "  MISSING: %s was not measured\n" n) missing;
  let correct = l.failed = 0 && missing = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 l.attempted) l.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          metrics))

(* ----------------------------------------------------------------- CLI *)

let main workload seed seconds traced tiny probe =
  if probe then `Ok (setup_probe ())
  else
    match workload with
    | None -> `Error (true, "--workload is required")
    | Some _ when seconds < 1 -> `Error (true, "--seconds must be at least 1")
    | Some kind ->
        let cfg = { kind; seed; seconds = float_of_int seconds; traced; tiny } in
        let o = run cfg in
        report cfg o;
        Option.iter
          (fun t ->
            (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
            let path =
              Printf.sprintf ".perfbench/trace-%s-%d.json" (Workload.name kind) seed
            in
            Span.write_chrome t path;
            Printf.eprintf "chrome trace written to %s\n" path)
          o.tr;
        `Ok ()

let () =
  let open Cmdliner in
  let workload =
    Arg.(
      value
      & opt (some (enum Workload.kinds)) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"paper, chain, repetitive or edit.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ]
          ~doc:"Seed of the edit stream, of the checked states and of chain's small routines.")
  in
  let seconds =
    Arg.(value & opt int 20 & info [ "seconds" ] ~doc:"Length of the measured window.")
  in
  let traced =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1 = traced run printing the per-layer metrics; 0 = end-to-end metrics.")
  in
  let tiny = Arg.(value & flag & info [ "tiny" ] ~doc:"Tiny inputs (smoke test).") in
  let probe =
    Arg.(value & flag & info [ "setup-probe" ] ~doc:"Internal: become ready to compile, then exit.")
  in
  let term =
    Term.(
      ret (const main $ workload $ seed $ seconds $ traced $ tiny $ probe))
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "perfbench" ~doc:"real-clock compiler benchmark") term))
