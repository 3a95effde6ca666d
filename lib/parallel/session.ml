open Pag_core
open Pag_eval
open Netsim

(* ------------------------------------------------------------------ *)
(* Run setup shared by pagc, agrun and bench                           *)
(* ------------------------------------------------------------------ *)

type spec = {
  sp_machines : int;
  sp_schedule : [ `Static | `Dynamic | `Steal ];
  sp_transport : [ `Sim | `Domains ];
  sp_granularity : float;
  sp_librarian : bool;
  sp_priority : bool;
  sp_dag : bool;
  sp_telemetry : bool;
  sp_faults : Faults.spec option;
  sp_phase_label : int -> string option;
  sp_provenance : bool;
}

let spec ?(schedule = `Static) ?(transport = `Sim)
    ?(granularity = 1.0) ?(librarian = true) ?(priority = true)
    ?(dag = false) ?(telemetry = false) ?faults
    ?(phase_label = fun _ -> None) ?(provenance = false) machines =
  {
    sp_machines = machines;
    sp_schedule = schedule;
    sp_transport = transport;
    sp_granularity = granularity;
    sp_librarian = librarian;
    sp_priority = priority;
    sp_dag = dag;
    sp_telemetry = telemetry;
    sp_faults = faults;
    sp_phase_label = phase_label;
    sp_provenance = provenance;
  }

let options s =
  {
    Runner.default_options with
    Runner.machines = s.sp_machines;
    schedule = s.sp_schedule;
    granularity = s.sp_granularity;
    use_librarian = s.sp_librarian;
    use_priority = s.sp_priority;
    use_dag = s.sp_dag;
    telemetry = s.sp_telemetry;
    faults = s.sp_faults;
    phase_label = s.sp_phase_label;
    provenance = s.sp_provenance;
  }

let run s g plan tree =
  let o = options s in
  match s.sp_transport with
  | `Sim -> Runner.run_sim o g plan tree
  | `Domains -> Runner.run_domains o g plan tree

(* ------------------------------------------------------------------ *)
(* Edit sessions: incremental re-evaluation over the network model     *)
(* ------------------------------------------------------------------ *)

(* Each edit gets its own tiny simulation (the long-lived machine
   processes of a real editor service, collapsed to one message wave per
   edit) on a simulator instance of its own, separate from {!Runner}'s. *)
module ES = Sim.Make (struct
  type msg = Message.t
end)

type edit_session = {
  es_spec : spec;
  es_g : Grammar.t;
  es_incr : Incr.session;
  mutable es_plan : Split.plan;
}

type edit_report = {
  er_dirty : int;
  er_refired : int;
  er_cutoff : int;
  er_fallback : bool;
  er_prop_ms : float;
  er_owner : int;
  er_boundary_changed : int;
  er_boundary_total : int;
  er_bytes_incr : int;
  er_bytes_full : int;
  er_messages : int;
  er_retransmits : int;
  er_latency : float;
}

let open_session ?obs ?prov ?frontier sp g tree =
  let prov =
    match prov with
    | Some p -> p
    | None ->
        if sp.sp_provenance then
          Pag_obs.Prov.create ~arity:(Causal.arity_for g) ()
        else Pag_obs.Prov.disabled
  in
  let incr = Incr.start ?obs ~dag:sp.sp_dag ~prov ?frontier g tree in
  let plan =
    Split.decompose g (Incr.tree incr) ~machines:sp.sp_machines
      ~granularity:sp.sp_granularity
  in
  { es_spec = sp; es_g = g; es_incr = incr; es_plan = plan }

let tree es = Incr.tree es.es_incr

let store es = Incr.store es.es_incr

let live_slots es = Incr.live_slots es.es_incr

let totals es = Incr.totals es.es_incr

let engine es = Incr.engine es.es_incr

let prov es = Incr.prov es.es_incr

(* Attributes of a boundary node, with their index into the symbol's
   declaration array (the index doubles as the wire reference id via
   {!Pag_eval.Store.slot_of}). *)
let attrs_of es (n : Tree.t) kind =
  let s = Grammar.symbol es.es_g n.Tree.sym in
  Array.to_list s.Grammar.s_attrs
  |> List.mapi (fun i a -> (i, a))
  |> List.filter (fun (_, (a : Grammar.attr_decl)) -> a.Grammar.a_kind = kind)

(* One attribute crossing a machine boundary: changed since the last edit
   (per {!Incr.changed}) ships in full, unchanged ships as a fixed-size
   intern reference — the receiver already holds the value. *)
let boundary_message es ~src (b : Tree.t) attr_idx (a : Grammar.attr_decl) =
  let st = Incr.store es.es_incr in
  if Incr.changed es.es_incr b a.Grammar.a_name then
    Message.Attr
      {
        node = b.Tree.id;
        attr = a.Grammar.a_name;
        value = Store.get st b a.Grammar.a_name;
      }
  else
    Message.Attr_ref
      {
        src;
        node = b.Tree.id;
        attr = a.Grammar.a_name;
        iid = Store.slot_of st b ~attr_idx;
        hash = 0;
      }

(* Every boundary attribute a wave ships: both directions at each non-root
   fragment root, and the tree's synthesized attributes at the root. *)
let iter_boundary es f =
  let each (b : Tree.t) kind =
    List.iter (fun (_, a) -> f b a) (attrs_of es b kind)
  in
  Array.iter
    (fun (fr : Split.fragment) ->
      if Option.is_some fr.Split.fr_parent then begin
        each fr.Split.fr_root Grammar.Syn;
        each fr.Split.fr_root Grammar.Inh
      end)
    (Split.fragments es.es_plan);
  each (Incr.tree es.es_incr) Grammar.Syn

(* Boundary census: what crossed a machine boundary, and how much of it
   the cutoff kept to a reference. *)
let census es =
  let changed = ref 0 and total = ref 0 in
  iter_boundary es (fun b (a : Grammar.attr_decl) ->
      incr total;
      if Incr.changed es.es_incr b a.Grammar.a_name then incr changed);
  (!changed, !total)

(* The message wave shared by single and batched edits. The coordinator
   hands [dispatch] bytes to the owner machine, which pays [owner_delay]
   (rebuild, and whatever refire runs there). With [rounds] the refire is a
   steal wave co-scheduled across ALL fragment machines: the owner ships a
   [chunk_bytes] cone chunk to every other machine, each works
   [share_work], and results return to the owner (alone, the owner works
   its share itself). Boundary attributes then flow through the fragment
   tree: inherited attributes down from every fragment to its children,
   synthesized attributes up to its parent, and the root fragment finally
   reports the tree's synthesized attributes to the coordinator. The wave
   visits every boundary; what the equality cutoff left unchanged crosses
   as references. A single edit is the degenerate wave: no rounds, the
   owner's delay carries the whole propagation. Returns the network, the
   retransmission count and the finish time. *)
let wave es ~owner_frag ~edit_node ~dispatch ~owner_delay ~rounds ~share_work
    ~chunk_bytes =
  let sp = es.es_spec in
  let frags = Split.fragments es.es_plan in
  let nfrags = Array.length frags in
  let root = Incr.tree es.es_incr in
  let children =
    let t = Array.make nfrags [] in
    Array.iter
      (fun (f : Split.fragment) ->
        match f.Split.fr_parent with
        | Some p -> t.(p) <- f :: t.(p)
        | None -> ())
      frags;
    Array.map List.rev t
  in
  let assisted = rounds && nfrags > 1 in
  let sim = ES.create () in
  Option.iter (ES.set_faults sim) sp.sp_faults;
  let faulty = Option.is_some sp.sp_faults in
  (* The owner acknowledges nothing while it propagates; scale the
     retransmission timeout so the backoff horizon dwarfs that phase. *)
  let rto = Float.max 0.1 ((owner_delay +. share_work) /. 4.0) in
  let links = ref [] in
  let env_for id =
    let raw =
      {
        Transport.e_id = id;
        e_delay = ES.delay;
        e_send =
          (fun ~dst m ->
            ES.send ~dst ~size:(Message.size m) ~label:(Message.label m) m);
        e_recv = ES.recv;
        e_recv_timeout = ES.recv_timeout;
        e_time = ES.time;
        e_mark = ES.mark;
        e_flush = (fun () -> ());
      }
    in
    if faulty then begin
      let l = Reliable.wrap ~rto ~max_tries:8 raw in
      links := l :: !links;
      Reliable.env l
    end
    else raw
  in
  let finish = ref 0.0 in
  (* pid 0: the coordinator (parser) hands the edit to its owner and waits
     for the refreshed root attributes. *)
  let coord_env = env_for 0 in
  let root_syn = attrs_of es root Grammar.Syn in
  let _ =
    ES.spawn sim ~name:"parser" (fun () ->
        coord_env.Transport.e_send ~dst:(owner_frag + 1)
          (Message.Edit { node = edit_node; bytes = dispatch });
        let got = ref 0 in
        while !got < List.length root_syn do
          match coord_env.Transport.e_recv () with
          | Message.Attr _ | Message.Attr_ref _ -> incr got
          | _ -> ()
        done;
        finish := ES.time ();
        coord_env.Transport.e_flush ())
  in
  (* pids 1..nfrags: one machine per fragment. *)
  Array.iter
    (fun (f : Split.fragment) ->
      let id = f.Split.fr_id + 1 in
      let env = env_for id in
      let is_owner = f.Split.fr_id = owner_frag in
      let inh_expected =
        match f.Split.fr_parent with
        | Some _ -> List.length (attrs_of es f.Split.fr_root Grammar.Inh)
        | None -> 0
      in
      let syn_expected =
        List.fold_left
          (fun acc (c : Split.fragment) ->
            acc + List.length (attrs_of es c.Split.fr_root Grammar.Syn))
          0
          children.(f.Split.fr_id)
      in
      let _ =
        ES.spawn sim
          ~name:(Runner.machine_name ~fragments:nfrags id)
          (fun () ->
            let seen = ref 0 in
            (* [Edit]-tagged messages (dispatch, cone chunks, chunk
               results) never count toward the boundary census. *)
            let rec wait_edit () =
              match env.Transport.e_recv () with
              | Message.Edit _ -> ()
              | _ ->
                  incr seen;
                  wait_edit ()
            in
            if is_owner then begin
              wait_edit ();
              env.Transport.e_delay owner_delay;
              if assisted then begin
                (* ship cone chunks, work own share, collect results *)
                Array.iter
                  (fun (g : Split.fragment) ->
                    if g.Split.fr_id <> owner_frag then
                      env.Transport.e_send ~dst:(g.Split.fr_id + 1)
                        (Message.Edit { node = -1; bytes = chunk_bytes }))
                  frags;
                env.Transport.e_delay share_work;
                let results = ref 0 in
                while !results < nfrags - 1 do
                  match env.Transport.e_recv () with
                  | Message.Edit _ -> incr results
                  | _ -> incr seen
                done
              end
              else if rounds then env.Transport.e_delay share_work
            end
            else if assisted then begin
              wait_edit ();
              env.Transport.e_delay share_work;
              env.Transport.e_send ~dst:(owner_frag + 1)
                (Message.Edit { node = -1; bytes = chunk_bytes })
            end;
            (* inherited attributes down to each child fragment *)
            List.iter
              (fun (c : Split.fragment) ->
                List.iter
                  (fun (i, a) ->
                    env.Transport.e_send ~dst:(c.Split.fr_id + 1)
                      (boundary_message es ~src:id c.Split.fr_root i a))
                  (attrs_of es c.Split.fr_root Grammar.Inh))
              children.(f.Split.fr_id);
            (* wait out the parent's inherited and the children's
               synthesized boundary attributes *)
            while !seen < inh_expected + syn_expected do
              (match env.Transport.e_recv () with
              | Message.Edit _ -> ()
              | _ -> incr seen);
            done;
            (* synthesized attributes up: to the parent fragment's machine,
               or — for the root fragment — to the coordinator *)
            let dst, up =
              match f.Split.fr_parent with
              | Some p -> (p + 1, attrs_of es f.Split.fr_root Grammar.Syn)
              | None -> (0, root_syn)
            in
            List.iter
              (fun (i, a) ->
                env.Transport.e_send ~dst
                  (boundary_message es ~src:id f.Split.fr_root i a))
              up;
            env.Transport.e_flush ())
      in
      ())
    frags;
  ES.run sim;
  let retransmits =
    List.fold_left
      (fun acc l -> acc + (Reliable.stats l).Reliable.rs_retransmits)
      0 !links
  in
  (ES.network sim, retransmits, !finish)

let owner_delay (st : Incr.edit_stats) ~bytes =
  let cost = Cost.default in
  (float_of_int bytes *. cost.Cost.rebuild_per_byte)
  +. (float_of_int st.Incr.ed_dirty *. cost.Cost.build_node)
  +. (float_of_int st.Incr.ed_refired *. Cost.rule_cost cost ~dynamic:true)

(* The per-edit wave: the owner pays the rebuild and the whole propagation
   (the model charges all re-fired rules to the edit's owner). *)
let simulate es ~owner_frag ~edit_node ~bytes (st : Incr.edit_stats) =
  let net, retransmits, finish =
    wave es ~owner_frag ~edit_node ~dispatch:bytes
      ~owner_delay:(owner_delay st ~bytes) ~rounds:false ~share_work:0.0
      ~chunk_bytes:0
  in
  let changed, total = census es in
  (* A from-scratch distributed recompile ships every fragment's subtree
     plus every boundary attribute in full. *)
  let root = Incr.tree es.es_incr in
  let bytes_full =
    ref
      ((Split.count es.es_plan * Message.header_bytes) + Tree.byte_size root)
  in
  iter_boundary es (fun b (a : Grammar.attr_decl) ->
      bytes_full :=
        !bytes_full
        + Message.size
            (Message.Attr
               {
                 node = b.Tree.id;
                 attr = a.Grammar.a_name;
                 value = Store.get (Incr.store es.es_incr) b a.Grammar.a_name;
               }));
  {
    er_dirty = st.Incr.ed_dirty;
    er_refired = st.Incr.ed_refired;
    er_cutoff = st.Incr.ed_cutoff;
    er_fallback = st.Incr.ed_fallback;
    er_prop_ms = st.Incr.ed_prop_ms;
    er_owner = owner_frag;
    er_boundary_changed = changed;
    er_boundary_total = total;
    er_bytes_incr = Ethernet.bytes_sent net;
    er_bytes_full = !bytes_full;
    er_messages = Ethernet.messages_sent net;
    er_retransmits = retransmits;
    er_latency = finish;
  }

(* ------------------------------------------------------------------ *)
(* Batched edit waves                                                  *)
(* ------------------------------------------------------------------ *)

type batch_report = {
  br_edits : int;
  br_waves : int;
  br_conflicts : int;
  br_dirty : int;
  br_refired : int;
  br_cutoff : int;
  br_fallbacks : int;
  br_rounds : int;
  br_boundary_changed : int;
  br_boundary_total : int;
  br_bytes : int;
  br_messages : int;
  br_retransmits : int;
  br_latency : float;
}

(* The batched wave: one dispatch carries every replacement plus the
   cone-merge metadata, the owner pays the grafts and cone construction,
   and the merged refire runs as a steal wave co-scheduled across ALL
   fragment machines (a round costs its ceiling share,
   [ceil (fires / machines)] steal-priced rules) before one boundary flow
   settles the frontier. Serial application pays the owner-sequential
   refire and a full boundary wave per edit; the batch pays the refire in
   parallel rounds and the boundary wave once. *)
let simulate_batch es ~owner_frag ~edit_node ~bytes (wv : Incr.wave_stats) =
  let cost = Cost.default in
  let assist = max 1 (Split.count es.es_plan) in
  let rounds = Array.length wv.Incr.wv_round_refired > 0 in
  (* Per-machine share of the co-scheduled refire wave; a rebuilt wave
     (fallback, no round structure) re-fires sequentially at the owner. *)
  let share_work =
    Array.fold_left
      (fun acc r ->
        acc
        +. Float.of_int ((r + assist - 1) / assist)
           *. cost.Cost.steal_rule)
      0.0 wv.Incr.wv_round_refired
  in
  (* Sequential prefix at the owner: rebuild the replacements, walk the
     merged cone. *)
  let owner_seq =
    (float_of_int bytes *. cost.Cost.rebuild_per_byte)
    +. (float_of_int wv.Incr.wv_dirty *. cost.Cost.build_node)
  in
  let owner_delay =
    if rounds then owner_seq
    else
      owner_seq
      +. float_of_int wv.Incr.wv_refired *. Cost.rule_cost cost ~dynamic:true
  in
  (* Cone-merge metadata: one descriptor per edit in the dispatch, one per
     shipped cone member in the assist chunks. *)
  let net, retransmits, finish =
    wave es ~owner_frag ~edit_node
      ~dispatch:(bytes + (16 * wv.Incr.wv_edits))
      ~owner_delay ~rounds ~share_work
      ~chunk_bytes:(wv.Incr.wv_refired / assist * 16)
  in
  let changed, total = census es in
  {
    br_edits = wv.Incr.wv_edits;
    br_waves = wv.Incr.wv_waves;
    br_conflicts = wv.Incr.wv_conflicts;
    br_dirty = wv.Incr.wv_dirty;
    br_refired = wv.Incr.wv_refired;
    br_cutoff = wv.Incr.wv_cutoff;
    br_fallbacks = wv.Incr.wv_fallbacks;
    br_rounds = wv.Incr.wv_rounds;
    br_boundary_changed = changed;
    br_boundary_total = total;
    br_bytes = Ethernet.bytes_sent net;
    br_messages = Ethernet.messages_sent net;
    br_retransmits = retransmits;
    br_latency = finish;
  }

let no_batch (wv : Incr.wave_stats) =
  {
    br_edits = wv.Incr.wv_edits;
    br_waves = wv.Incr.wv_waves;
    br_conflicts = wv.Incr.wv_conflicts;
    br_dirty = wv.Incr.wv_dirty;
    br_refired = wv.Incr.wv_refired;
    br_cutoff = wv.Incr.wv_cutoff;
    br_fallbacks = wv.Incr.wv_fallbacks;
    br_rounds = wv.Incr.wv_rounds;
    br_boundary_changed = 0;
    br_boundary_total = 0;
    br_bytes = 0;
    br_messages = 0;
    br_retransmits = 0;
    br_latency = 0.0;
  }

let no_wave (st : Incr.edit_stats) =
  {
    er_dirty = st.Incr.ed_dirty;
    er_refired = st.Incr.ed_refired;
    er_cutoff = st.Incr.ed_cutoff;
    er_fallback = st.Incr.ed_fallback;
    er_prop_ms = st.Incr.ed_prop_ms;
    er_owner = 0;
    er_boundary_changed = 0;
    er_boundary_total = 0;
    er_bytes_incr = 0;
    er_bytes_full = 0;
    er_messages = 0;
    er_retransmits = 0;
    er_latency = 0.0;
  }

(* The parser re-decomposes after every structural edit: a replacement may
   have swapped out a subtree containing a fragment root, and the wave must
   ship boundary attributes of live nodes only. The fresh plan is also what
   the owner lookup runs against — the edit site is by construction live. *)
let refresh_plan es =
  es.es_plan <-
    Split.decompose es.es_g (Incr.tree es.es_incr)
      ~machines:es.es_spec.sp_machines ~granularity:es.es_spec.sp_granularity

let apply_edit incr next =
  let delta = Tree.diff (Incr.tree incr) next in
  let bytes =
    match delta with
    | Tree.Equal -> 0
    | Tree.Root -> Tree.byte_size next
    | Tree.Subtree { repl; _ } -> Tree.byte_size repl
  in
  (delta, Incr.apply incr next delta, bytes)

let edit es next =
  let delta, st, bytes = apply_edit es.es_incr next in
  match delta with
  | Tree.Equal -> no_wave st
  | Tree.Root ->
      refresh_plan es;
      let root = Incr.tree es.es_incr in
      simulate es ~owner_frag:0 ~edit_node:root.Tree.id ~bytes st
  | Tree.Subtree { parent; _ } ->
      refresh_plan es;
      let owner_frag =
        Option.value (Split.owner_of es.es_plan parent) ~default:0
      in
      simulate es ~owner_frag ~edit_node:parent.Tree.id ~bytes st

let edit_batch es nexts =
  let wv = Incr.edit_batch es.es_incr nexts in
  refresh_plan es;
  if wv.Incr.wv_dirty = 0 && wv.Incr.wv_refired = 0 && wv.Incr.wv_fallbacks = 0
  then no_batch wv
  else
    let root = Incr.tree es.es_incr in
    simulate_batch es ~owner_frag:0 ~edit_node:root.Tree.id
      ~bytes:wv.Incr.wv_bytes wv
