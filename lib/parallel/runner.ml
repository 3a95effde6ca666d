open Pag_core
open Pag_obs
open Netsim

type options = {
  machines : int;
  schedule : [ `Static | `Dynamic | `Steal ];
  granularity : float;
  use_priority : bool;
  use_librarian : bool;
  use_dag : bool;
  cost : Cost.t;
  phase_label : int -> string option;
  faults : Faults.spec option;
  telemetry : bool;
  provenance : bool;
}

let default_options =
  {
    machines = 1;
    schedule = `Static;
    granularity = 1.0;
    use_priority = true;
    use_librarian = true;
    use_dag = false;
    cost = Cost.default;
    phase_label = (fun _ -> None);
    faults = None;
    telemetry = false;
    provenance = false;
  }

type result = {
  r_attrs : (string * Value.t) list;
  r_time : float;
  r_worker_stats : Worker.stats array;
  r_trace : Trace.t option;
  r_messages : int;
  r_bytes : int;
  r_fragments : int;
  r_split : Split.plan;
  r_dynamic_fraction : float;
  r_retransmits : int;
  r_recovered : bool;
  r_fault_stats : Faults.stats option;
  r_obs : Obs.recorder option;
  r_report : Obs.Report.t;
  r_prov : (Prov.t * Pag_eval.Engine.t) list;
  r_tree : Tree.t;
}

let machine_name ~fragments id =
  if id = 0 then "parser"
  else if id <= fragments then
    Printf.sprintf "eval-%c" (Char.chr (Char.code 'a' + id - 1))
  else "librarian"

(* The task of the evaluator for fragment [f]. Each cut stub is the root
   of the fragment evaluated past it. *)
let make_task plan (f : Split.fragment) =
  let frags = Split.fragments plan in
  let cuts =
    List.map
      (fun cut_id ->
        match Split.fragment_of_cut_node plan cut_id with
        | Some fr -> (frags.(fr).Split.fr_root, fr + 1)
        | None -> assert false)
      (Split.cuts_of plan f.Split.fr_id)
  in
  {
    Worker.t_frag_id = f.Split.fr_id;
    t_root = f.Split.fr_root;
    t_cuts = cuts;
    t_parent_machine =
      (match f.Split.fr_parent with None -> 0 | Some p -> p + 1);
  }

let sum_retransmits links =
  Array.fold_left
    (fun a -> function
      | Some l -> a + (Reliable.stats l).Reliable.rs_retransmits
      | None -> a)
    0 links

(* ------------------------- telemetry ------------------------- *)

let run_label opts ~transport =
  let kind =
    match opts.schedule with
    | `Static -> "combined"
    | `Dynamic -> "dynamic"
    | `Steal -> "steal"
  in
  Printf.sprintf "%s, %d machine%s (%s)" kind opts.machines
    (if opts.machines = 1 then "" else "s")
    transport

(* Semantic rule instances in the tree: a from-scratch run fires each
   once. *)
let rule_instances tree =
  Tree.fold
    (fun acc (nd : Tree.t) ->
      match nd.Tree.prod with
      | None -> acc
      | Some p -> acc + Array.length p.Grammar.p_rules)
    0 tree

(* Per-machine telemetry contexts. Each slot is written by exactly one
   machine (its own), so an array is race-free on the domains transport;
   the main thread reads it only after joining every domain. *)
let make_ctxs opts ~n ~clock =
  if opts.telemetry then
    Array.init n (fun pid -> Obs.make_ctx ~pid ~clock)
  else Array.make (max 1 n) Obs.null_ctx

(* Per-machine provenance rings and the engines that resolve them. Like
   [make_ctxs], each slot is written by exactly one machine and read only
   after the run joins. *)
let make_provs opts g ~tree ~n =
  if opts.provenance then begin
    (* Pre-size each machine's ring near its share of the tree's rule
       instances: a from-scratch run fires each rule once. The hint stays
       deliberately under the likely final count — doubling once from a
       near miss costs one small blit, while over-provisioning n machines
       pays for zeroing arrays nothing ever writes. *)
    let hint = rule_instances tree / max 1 (n - 2) in
    let arity = Pag_eval.Causal.arity_for g in
    Array.init n (fun _ -> Prov.create ~hint ~arity ())
  end
  else Array.make (max 1 n) Prov.disabled

let collect_prov opts provs engs =
  if not opts.provenance then []
  else
    List.filter_map
      (fun i ->
        match engs.(i) with
        | Some e when Prov.enabled provs.(i) -> Some (provs.(i), e)
        | _ -> None)
      (List.init (Array.length engs) Fun.id)

(* Re-express the simulator's own trace in telemetry terms: message arrows
   become flow events, idle segments become "idle" spans, phase marks
   become instants. Worker/coordinator spans are recorded directly; the
   trace supplies everything only the network layer sees. *)
let recorder_of_trace tr =
  let r = Obs.create () in
  Trace.iter_segments tr (fun (s : Trace.segment) ->
      if s.Trace.sg_kind = Trace.Idle then
        Obs.span r ~pid:s.Trace.sg_pid ~t0:s.Trace.sg_t0 ~t1:s.Trace.sg_t1
          "idle");
  Trace.iter_arrows tr (fun (a : Trace.arrow) ->
      Obs.flow r ~src:a.Trace.ar_src ~dst:a.Trace.ar_dst ~send:a.Trace.ar_send
        ~recv:a.Trace.ar_recv a.Trace.ar_label);
  Trace.iter_marks tr (fun (m : Trace.mark) ->
      Obs.instant r ~pid:m.Trace.mk_pid ~t:m.Trace.mk_time m.Trace.mk_label);
  r

(* What a transport reports after a run: the report's time axis and
   machine rows, wire totals, and the network-level artefacts. *)
type outcome = {
  oc_horizon : float;
  oc_rows : Obs.Report.machine list;
  oc_messages : int;
  oc_bytes : int;
  oc_trace : Trace.t option;
  oc_faults : Faults.stats option;
}

(* Every run path ends here: the report, the merged telemetry and the
   dynamic fraction are derived from the same worker statistics and
   outcome, so no path can disagree with another on them. *)
let assemble opts ~transport ~ctxs ~split ~fragments ~worker_stats ~attrs
    ~time ?(retransmits = 0) ?(recovered = false) ~prov oc tree =
  let sum f = Array.fold_left (fun a s -> a + f s) 0 worker_stats in
  let dyn = sum (fun s -> s.Worker.ws_dynamic_rules) in
  let st = sum (fun s -> s.Worker.ws_static_rules) in
  let metrics = Obs.Metrics.create () in
  Array.iter (fun c -> Obs.Metrics.merge ~into:metrics c.Obs.x_metrics) ctxs;
  let r_obs =
    if opts.telemetry then
      let net = Option.to_list (Option.map recorder_of_trace oc.oc_trace) in
      let machines = Array.to_list (Array.map (fun c -> c.Obs.x_rec) ctxs) in
      Some (Obs.merge (net @ machines))
    else None
  in
  {
    r_attrs = attrs;
    r_time = time;
    r_worker_stats = worker_stats;
    r_trace = oc.oc_trace;
    r_messages = oc.oc_messages;
    r_bytes = oc.oc_bytes;
    r_fragments = fragments;
    r_split = split;
    r_dynamic_fraction =
      (if dyn + st = 0 then 0.0
       else float_of_int dyn /. float_of_int (dyn + st));
    r_retransmits = retransmits;
    r_recovered = recovered;
    r_fault_stats = oc.oc_faults;
    r_obs;
    r_report =
      {
        Obs.Report.rp_label = run_label opts ~transport;
        rp_clock = (if transport = "sim" then "simulated" else "wall clock");
        rp_horizon = oc.oc_horizon;
        rp_machines = oc.oc_rows;
        rp_dynamic_rules = dyn;
        rp_static_rules = st;
        rp_messages = oc.oc_messages;
        rp_bytes = oc.oc_bytes;
        rp_retransmits = retransmits;
        rp_metrics = metrics;
      };
    r_prov = prov;
    r_tree = tree;
  }

(* A worker that never reported under fault injection was crashed or called
   off; without faults it is a protocol bug. *)
let collect_worker_stats ~faulty stats =
  Array.map
    (function
      | Some s -> s
      | None when faulty -> Worker.zero_stats
      | None -> failwith "worker did not finish")
    stats

(* Per-machine work-stealing counters. The idle gauge is named by the
   caller: virtual seconds on the simulator, spin iterations on domains. *)
let steal_metrics obs ~idle (st : Steal.stats) =
  if Obs.ctx_enabled obs then begin
    let reg = obs.Obs.x_metrics in
    let count name v = Obs.Metrics.add (Obs.Metrics.counter reg name) v in
    count "steal.fires" st.Steal.st_fired;
    count "steal.attempts" st.Steal.st_attempts;
    count "steal.successes" st.Steal.st_successes;
    count "steal.stolen" st.Steal.st_stolen;
    Obs.Metrics.set_gauge_max reg "steal.deque_hwm"
      (float_of_int st.Steal.st_hwm);
    Obs.Metrics.add_gauge reg idle st.Steal.st_idle
  end

(* ------------------------- the fragment protocol ------------------------- *)

(* What differs between the transports the fragment protocol runs on.
   {!run_protocol} writes everything else once: delivery wrapping, worker
   configuration, coordinator recovery and result assembly. *)
type backend = {
  bk_transport : string;  (** "sim" or "domains", for the report *)
  bk_env : int -> Transport.env;  (** a machine's raw environment *)
  bk_launch : (int * (unit -> unit)) list -> unit;
      (** runs the machine bodies (pid 0, the coordinator, first) and
          returns when they have all returned *)
  bk_clock : unit -> float;
  bk_rto : float;
  bk_max_tries : int;
  bk_watchdog : float;
  bk_prov_dwell : bool;
      (** price firing durations from the cost model (virtual clocks) *)
  bk_finish : pids:int -> Worker.stats array -> outcome;
}

(* The paper's protocol — parser/coordinator, one evaluator per fragment,
   optional string librarian — on the backend [mk] builds for the split. *)
let run_protocol mk opts g plan tree =
  let split =
    Split.decompose g tree ~machines:opts.machines
      ~granularity:opts.granularity
  in
  (* Sharing classes are computed once on the numbered tree; the immutable
     arrays are read concurrently by every machine's subtree memo. *)
  let sharing = if opts.use_dag then Some (Tree.sharing tree) else None in
  let nfrags = Split.count split in
  let librarian = if opts.use_librarian then Some (nfrags + 1) else None in
  let n = nfrags + 2 in
  let bk = mk opts tree ~nfrags in
  let faulty = Option.is_some opts.faults in
  let ctxs = make_ctxs opts ~n ~clock:bk.bk_clock in
  let provs = make_provs opts g ~tree ~n in
  let prov_engs = Array.make n None in
  (* With a fault plan — even an all-zero one, for overhead measurement —
     every machine talks through its own reliable-delivery layer.
     Interning sits above reliable delivery: binds and references are
     retransmitted like any payload, backfills cover reordering. *)
  let links = Array.make n None in
  let envs =
    Array.init n (fun id ->
        let obs = ctxs.(id) in
        let raw = bk.bk_env id in
        let base =
          if faulty then begin
            let l =
              Reliable.wrap ~obs ~rto:bk.bk_rto ~max_tries:bk.bk_max_tries raw
            in
            links.(id) <- Some l;
            Reliable.env l
          end
          else raw
        in
        if opts.use_dag then Intern.env (Intern.wrap ~obs base) else base)
  in
  let attrs = ref [] and recovered = ref false and finish = ref 0.0 in
  let coordinator () =
    let recovery =
      Option.map
        (fun link ->
          {
            Coordinator.rc_link = link;
            rc_kplan = plan;
            rc_cost = opts.cost;
            rc_watchdog = bk.bk_watchdog;
          })
        links.(0)
    in
    let a, r =
      Coordinator.run ~obs:ctxs.(0) ?recovery ?sharing envs.(0) g ~tree
        ~plan:split ~librarian
    in
    attrs := a;
    recovered := r;
    finish := bk.bk_clock ()
  in
  let stats = Array.make nfrags None in
  let evaluator (f : Split.fragment) =
    let pid = f.Split.fr_id + 1 in
    let cfg =
      {
        Worker.wc_grammar = g;
        wc_plan = plan;
        wc_mode = (if opts.schedule = `Dynamic then `Dynamic else `Combined);
        wc_cost = opts.cost;
        wc_use_priority = opts.use_priority;
        wc_librarian = librarian;
        wc_phase_label = opts.phase_label;
        wc_obs = ctxs.(pid);
        wc_sharing = sharing;
        wc_prov = provs.(pid);
        wc_prov_dwell = bk.bk_prov_dwell;
        wc_engine_hook = (fun e -> prov_engs.(pid) <- Some e);
      }
    in
    let task = make_task split f in
    (pid, fun () -> stats.(pid - 1) <- Some (Worker.run envs.(pid) cfg task))
  in
  let librarian_body lid =
    (lid, fun () -> Librarian.run ~obs:ctxs.(lid) envs.(lid) ~coordinator:0)
  in
  bk.bk_launch
    (((0, coordinator)
     :: Array.to_list (Array.map evaluator (Split.fragments split)))
    @ Option.to_list (Option.map librarian_body librarian));
  let worker_stats = collect_worker_stats ~faulty stats in
  let pids = if librarian = None then nfrags + 1 else nfrags + 2 in
  assemble opts ~transport:bk.bk_transport ~ctxs ~split ~fragments:nfrags
    ~worker_stats ~attrs:!attrs ~time:!finish
    ~retransmits:(sum_retransmits links) ~recovered:!recovered
    ~prov:(collect_prov opts provs prov_engs)
    (bk.bk_finish ~pids worker_stats)
    tree

(* ------------------------- simulation ------------------------- *)

module S = Sim.Make (struct
  type msg = Message.t
end)

(* Floor retransmission timeout and liveness watchdog, in virtual seconds,
   sized for the test fixtures (sub-second compute phases). A peer is
   presumed dead only after the full backoff horizon
   rto * (2 + 4 + ... + 2^max_tries) ~ 51s of silence. A simulated machine
   acknowledges nothing while it burns CPU inside one static visit, so the
   horizon must exceed the longest compute phase — {!auto_timeouts} scales
   them to the workload from the cost model (a machine's share of the
   tree's rules), never below these floors. *)
let sim_rto = 0.1

let sim_max_tries = 8

let sim_watchdog = 0.5

(* Workload-scaled timeouts: a machine's longest silent phase is on the
   order of its share of the whole tree's semantic rules, all fired at
   static-rule cost between messages. Probing at a quarter of that phase
   keeps retransmissions sparse during compute; the watchdog then allows
   four silent probe intervals before declaring the peer dead. On the
   paper-scale Pascal workload this lands at the 5s / 20s that E10 used to
   hand-tune; on the test fixtures both floors win. *)
let auto_timeouts opts tree =
  let phase =
    float_of_int (rule_instances tree) *. opts.cost.Cost.static_rule
    /. float_of_int (max 1 opts.machines)
  in
  let rto = Float.max sim_rto (phase /. 4.0) in
  (rto, Float.max sim_watchdog (4.0 *. rto))

let sim_env sim id =
  {
    Transport.e_id = id;
    e_delay = S.delay;
    e_send =
      (fun ~dst m ->
        S.send ~dst ~size:(Message.size m) ~label:(Message.label m) m);
    e_recv = S.recv;
    e_recv_timeout = S.recv_timeout;
    (* Direct scheduler read, not the [ETime] effect: the clock runs once
       per provenance-recorded firing, and fibers all share one OS thread,
       so the unsynchronized read is exact. *)
    e_time = (fun () -> S.now sim);
    e_mark = S.mark;
    e_flush = (fun () -> ());
  }

(* The simulator's outcome: machine rows read off the trace, wire totals
   off the shared Ethernet. [sends pid] counts a machine's boundary
   messages. *)
let sim_outcome sim ~fragments ~pids ~sends faults =
  let net = S.network sim in
  let tr = S.trace sim in
  let horizon = Trace.horizon tr in
  {
    oc_horizon = horizon;
    oc_rows =
      List.init pids (fun pid ->
          let active = Trace.active_time tr ~pid in
          {
            Obs.Report.rm_pid = pid;
            rm_name = machine_name ~fragments pid;
            rm_active = active;
            rm_idle = Float.max 0.0 (horizon -. active);
            rm_util = Trace.utilization tr ~pid;
            rm_sends = sends pid;
            rm_max_queue = S.max_queue_depth sim pid;
          });
    oc_messages = Ethernet.messages_sent net;
    oc_bytes = Ethernet.bytes_sent net;
    oc_trace = Some tr;
    oc_faults = faults;
  }

let sim_backend opts tree ~nfrags =
  let sim = S.create () in
  Option.iter (S.set_faults sim) opts.faults;
  let rto, watchdog = auto_timeouts opts tree in
  {
    bk_transport = "sim";
    bk_env = sim_env sim;
    bk_launch =
      (fun bodies ->
        List.iter
          (fun (pid, body) ->
            let name = machine_name ~fragments:nfrags pid in
            ignore (S.spawn sim ~name body))
          bodies;
        S.run sim);
    bk_clock = (fun () -> S.time ());
    bk_rto = rto;
    bk_max_tries = sim_max_tries;
    bk_watchdog = watchdog;
    bk_prov_dwell = true;
    bk_finish =
      (fun ~pids _ ->
        (* Boundary messages originated per machine, acks included: read
           off the trace so parser and librarian are covered too. *)
        let sends = Array.make (nfrags + 2) 0 in
        Trace.iter_arrows (S.trace sim) (fun (a : Trace.arrow) ->
            let src = a.Trace.ar_src in
            if src >= 0 && src < Array.length sends then
              sends.(src) <- sends.(src) + 1);
        sim_outcome sim ~fragments:nfrags ~pids
          ~sends:(fun pid -> sends.(pid))
          (S.fault_stats sim));
  }

(* ------------------------- work stealing ------------------------- *)

module ESt = Pag_eval.Store
module Eng = Pag_eval.Engine

(* The fragment whose machine owns a rule instance in the Split
   placement; the steal schedules seed each instance there. *)
let fragment_of split eng rid =
  Option.value ~default:0 (Split.owner_of split (Eng.node_of eng rid))

(* What both steal schedules run on: the Split placement that seeds
   affinity and one engine shared by every machine. With [--dag] the
   shared DAG is the evaluation substrate: repeated subtrees get one
   rule-instance set per (class × inherited fingerprint), parked
   occurrences own no instances at all, and their synthesized attributes
   arrive by projection when the leader's region completes. *)
let steal_substrate opts g tree =
  let split =
    Split.decompose g tree ~machines:opts.machines
      ~granularity:opts.granularity
  in
  let store = ESt.create_shared g tree in
  let dag = if opts.use_dag then Some (Tree.dag tree) else None in
  let dplan = Option.map (Pag_eval.Dag.plan g store) dag in
  let eng =
    Eng.create ?rules_for:(Option.map Pag_eval.Dag.rules_for dplan) g store
  in
  (split, store, dag, dplan, eng)

(* Steal-probe wire sizes: a request is one small frame, a reply carries
   the stolen instance ids. *)
let probe_request_bytes = 64

let probe_reply_bytes k = 32 + (8 * k)

(* Work-stealing evaluation over the network simulator.

   Unlike the static protocol there is no fragment shipping dance: the
   tree is shared (the paper's machines would each hold their fragment;
   here affinity seeding plays that role), and [opts.machines] evaluator
   fibers drain one shared engine. Fragment [i] seeds machine
   [(i mod machines) + 1], so with more machines than fragments the extras
   start empty and steal their way in — exactly the skewed-tree case the
   static placement cannot serve. Firing charges [Cost.steal_rule]; a
   steal probe charges a request and reply frame on the shared Ethernet
   (so steal traffic contends with everything else) plus the round-trip
   latency. Fault plans are priced against steal probes only (drop: the
   probe times out and is retried after backoff; dup: the reply frame is
   paid twice; crashes are a static-protocol notion and are ignored —
   DESIGN §11 discusses why). *)
let run_sim_steal opts g tree =
  let m = max 1 opts.machines in
  let sim = S.create () in
  let net = S.network sim in
  let injector = Option.map Faults.make opts.faults in
  (* The steal scheduler drains the same deques with or without the DAG;
     the DAG runtime only adds work through the two hooks below
     (projection releases consumers, materialization seeds fresh
     instances). *)
  let split, store, dag, dplan, eng = steal_substrate opts g tree in
  (* One ring for the shared engine: machine fibers are cooperative on one
     OS thread, so retargeting the pid before each fire is race-free.
     Durations are priced at the steal-rule cost — the virtual clock
     advances only through the [S.delay] after each firing. *)
  let prov =
    if opts.provenance then
      Prov.create ~hint:(Eng.rule_count eng)
        ~arity:(Pag_eval.Causal.arity_for g) ()
    else Prov.disabled
  in
  if opts.provenance then
    Eng.set_prov ~pid:0 ~dwell_dynamic:opts.cost.Cost.steal_rule
      ~clock:(fun () -> S.now sim)
      eng prov;
  let gr = Eng.graph eng in
  let n = Eng.rule_count eng in
  let machine_of_frag f = (f mod m) + 1 in
  let owner_machine rid = machine_of_frag (fragment_of split eng rid) in
  (* readiness: plain counters — all fibers share one OS thread. The
     array is growable because DAG materialization appends instances. *)
  let waiting = ref (Array.make (max 1 n) 0) in
  let deques = Array.init (m + 1) (fun _ -> Steal.create ()) in
  let stats = Array.init (m + 1) (fun _ -> Steal.zero_stats ()) in
  let own_rids = Array.make (m + 1) 0 in
  let own_edges = Array.make (m + 1) 0 in
  let live = ref 0 and pending = ref 0 in
  for rid = 0 to n - 1 do
    if not (Eng.is_dead eng rid) then begin
      incr live;
      let k = owner_machine rid in
      own_rids.(k) <- own_rids.(k) + 1;
      Eng.iter_slot_args eng rid (fun slot ->
          own_edges.(k) <- own_edges.(k) + 1;
          if not (ESt.slot_is_set store slot) then
            !waiting.(rid) <- !waiting.(rid) + 1);
      if !waiting.(rid) = 0 then begin
        Steal.push deques.(k) rid;
        incr pending
      end
    end
  done;
  let fired_total = ref 0 in
  let finisher = ref (-1) in
  (* The machine whose fiber is currently running; hook-pushed work lands
     on its deque (cooperative fibers, so the read is race-free). *)
  let cur = ref 1 in
  let rt =
    match dplan with
    | None -> None
    | Some p ->
        let rt = Pag_eval.Dag.make p eng gr in
        let release slot =
          Eng.iter_consumers gr slot (fun c ->
              if not (Eng.is_dead eng c) then begin
                !waiting.(c) <- !waiting.(c) - 1;
                if !waiting.(c) = 0 then begin
                  incr pending;
                  Steal.push deques.(!cur) c
                end
              end)
        in
        Pag_eval.Dag.set_hooks rt ~on_defined:release
          ~on_new_rids:(fun lo hi ->
            if hi > Array.length !waiting then begin
              let w = Array.make (max hi (2 * Array.length !waiting)) 0 in
              Array.blit !waiting 0 w 0 (Array.length !waiting);
              waiting := w
            end;
            for rid = lo to hi - 1 do
              if not (Eng.is_dead eng rid) then begin
                incr live;
                let wct = ref 0 in
                Eng.iter_slot_args eng rid (fun slot ->
                    if not (ESt.slot_is_set store slot) then incr wct);
                !waiting.(rid) <- !wct;
                if !wct = 0 then begin
                  incr pending;
                  Steal.push deques.(!cur) rid
                end
              end
            done);
        Pag_eval.Dag.prime rt;
        Some rt
  in
  let sends = Array.make (m + 1) 0 in
  (* Assignment pricing: with the DAG, each fragment ships as its real
     wire encoding — class bodies cross once per machine, repeats as
     backreferences ({!Split.dag_bytes}). *)
  let frag_wire (f : Split.fragment) =
    match dag with
    | Some d -> Split.dag_bytes split d.Tree.dg_sharing f
    | None -> f.Split.fr_bytes
  in
  let bytes_per_machine = Array.make (m + 1) 0 in
  Array.iter
    (fun (f : Split.fragment) ->
      let k = machine_of_frag f.Split.fr_id in
      bytes_per_machine.(k) <- bytes_per_machine.(k) + frag_wire f)
    (Split.fragments split);
  let ctxs = make_ctxs opts ~n:(m + 1) ~clock:(fun () -> S.time ()) in
  let attrs = ref [] in
  let finish = ref 0.0 in
  (* pid 0: the parser hands each machine its affinity share, then
     collects root attributes and one Stop per machine. *)
  let _ =
    S.spawn sim ~name:"parser" (fun () ->
        for k = 1 to m do
          let msg =
            Message.Subtree
              {
                frag = k - 1;
                bytes = bytes_per_machine.(k);
                uid_base = k * Uid.stride;
              }
          in
          S.send ~dst:k ~size:(Message.size msg) ~label:(Message.label msg)
            msg
        done;
        let stops = ref 0 in
        let acc = ref [] in
        while !stops < m do
          match S.recv () with
          | Message.Stop -> incr stops
          | Message.Attr { attr; value; _ } -> acc := (attr, value) :: !acc
          | _ -> ()
        done;
        attrs := List.rev !acc;
        finish := S.time ())
  in
  for k = 1 to m do
    let _ =
      S.spawn sim
        ~name:(machine_name ~fragments:m k)
        (fun () ->
          let my = deques.(k) in
          let st = stats.(k) in
          let obs = ctxs.(k) in
          (* deterministic per-machine xorshift for victim selection *)
          let seed = ref (((k * 0x9E3779B1) lor 1) land 0x3FFFFFFF) in
          let next_victim () =
            let x = !seed in
            let x = x lxor (x lsl 13) in
            let x = x lxor (x lsr 7) in
            let x = (x lxor (x lsl 17)) land 0x3FFFFFFF in
            seed := x;
            let v = 1 + (x mod (m - 1)) in
            if v >= k then v + 1 else v
          in
          (match S.recv () with
          | Message.Subtree { bytes; _ } ->
              S.delay (float_of_int bytes *. opts.cost.Cost.rebuild_per_byte)
          | _ -> ());
          (* This machine's share of instance-table construction. Unlike
             the 1987 dynamic scheduler's linked dependency graph, the
             flat table and its CSR edges are array arithmetic: no
             per-edge insertion charge, and the per-instance constant is
             one counter store, not a graph-node allocation. *)
          S.delay (float_of_int own_rids.(k) *. opts.cost.Cost.steal_init);
          let cursor = ref (k * Uid.stride) in
          let exec rid =
            cur := k;
            if opts.provenance then Eng.set_prov_pid eng k;
            (match rt with
            | None -> Uid.with_counter cursor (fun () -> Eng.fire eng rid)
            | Some rt ->
                (* Mark inside the counter bracket: the fiber draws labels
                   from its own cursor, so that is the cursor whose motion
                   witnesses a uid-consuming (untaintable) rule. *)
                Uid.with_counter cursor (fun () ->
                    let u0 = Uid.mark () in
                    Eng.fire eng rid;
                    if Uid.mark () <> u0 then
                      Pag_eval.Dag.note_taint rt
                        (Eng.node_of eng rid).Tree.id));
            S.delay opts.cost.Cost.steal_rule;
            st.Steal.st_fired <- st.Steal.st_fired + 1;
            incr fired_total;
            if !fired_total = !live then finisher := k;
            let tgt = Eng.target_slot eng rid in
            Eng.iter_consumers gr tgt (fun c ->
                if not (Eng.is_dead eng c) then begin
                  !waiting.(c) <- !waiting.(c) - 1;
                  if !waiting.(c) = 0 then begin
                    incr pending;
                    Steal.push my c;
                    let depth = Steal.size my in
                    if depth > st.Steal.st_hwm then st.Steal.st_hwm <- depth
                  end
                end);
            (* Projections and materializations cascade back through the
               hooks, landing on this machine's deque. *)
            Option.iter (fun rt -> Pag_eval.Dag.note_define rt tgt) rt;
            decr pending
          in
          (* When the deques run dry with the store incomplete, a parked
             occurrence's gate is fed by its own class's output (repmin
             shape): demand-materialize the lowest stalled region and keep
             going. Any fiber may hit this; the choice is deterministic. *)
          let more () =
            !pending > 0
            ||
            match rt with
            | Some rt when ESt.missing store > 0 ->
                cur := k;
                Pag_eval.Dag.force_stalled rt
            | _ -> false
          in
          let backoff = ref 0 in
          while more () do
            match Steal.pop my with
            | Some rid ->
                backoff := 0;
                exec rid
            | None ->
                let got =
                  m > 1
                  &&
                  let v = next_victim () in
                  st.Steal.st_attempts <- st.Steal.st_attempts + 1;
                  let verdict =
                    Option.map (fun i -> Faults.judge i ~src:k ~dst:v) injector
                  in
                  let now = S.time () in
                  let req_arrival =
                    Ethernet.transmit net ~now ~size:probe_request_bytes
                  in
                  sends.(k) <- sends.(k) + 1;
                  (match verdict with
                  | Some x when x.Faults.v_drop ->
                      (* probe lost: wait out the timeout, retry later *)
                      S.delay (sim_rto +. (req_arrival -. now));
                      st.Steal.st_idle <- st.Steal.st_idle +. sim_rto;
                      false
                  | _ ->
                      (* The stolen instances are in flight until the
                         reply arrives: they leave the victim's deque now
                         but only enter ours after the reply delay, so no
                         machine can re-steal them mid-transfer. (Pushing
                         before the delay livelocks two machines: the
                         victim, now idle, steals the batch back inside
                         our reply window, and each successful probe
                         resets both backoffs.) *)
                      let items = Steal.steal_some deques.(v) in
                      let stolen = List.length items in
                      let reply_size = probe_reply_bytes stolen in
                      let reply_arrival =
                        Ethernet.transmit net ~now:req_arrival
                          ~size:reply_size
                      in
                      let reply_arrival =
                        match verdict with
                        | Some x ->
                            if x.Faults.v_dup then
                              ignore
                                (Ethernet.transmit net ~now:req_arrival
                                   ~size:reply_size);
                            reply_arrival +. x.Faults.v_delay
                        | None -> reply_arrival
                      in
                      S.delay (Float.max 0.0 (reply_arrival -. now));
                      List.iter (Steal.push my) items;
                      if stolen > 0 then begin
                        st.Steal.st_successes <- st.Steal.st_successes + 1;
                        st.Steal.st_stolen <- st.Steal.st_stolen + stolen;
                        true
                      end
                      else false)
                in
                if got then backoff := 0
                else begin
                  (* exponential backoff between failed probes *)
                  let wait = 0.0005 *. float_of_int (1 lsl min !backoff 6) in
                  S.delay wait;
                  st.Steal.st_idle <- st.Steal.st_idle +. wait;
                  if !backoff < 16 then incr backoff
                end
          done;
          let complete =
            match rt with None -> true | Some _ -> ESt.missing store = 0
          in
          if !finisher = k && complete then
            List.iter
              (fun (attr, value) ->
                let msg = Message.Attr { node = tree.Tree.id; attr; value } in
                sends.(k) <- sends.(k) + 1;
                S.send ~dst:0 ~size:(Message.size msg)
                  ~label:(Message.label msg) msg)
              (ESt.root_attrs store);
          sends.(k) <- sends.(k) + 1;
          S.send ~dst:0 ~size:(Message.size Message.Stop)
            ~label:(Message.label Message.Stop) Message.Stop;
          steal_metrics obs ~idle:"steal.idle_wait" st)
    in
    ()
  done;
  S.run sim;
  let stuck =
    match rt with
    | None -> !fired_total < !live
    | Some _ -> ESt.missing store > 0
  in
  if stuck then
    raise
      (Eng.Cycle
         (Printf.sprintf
            "dynamic evaluation stuck: %d attribute instances unevaluated \
             (circular tree or missing root attributes)"
            (ESt.missing store)));
  (match rt with
  | Some rt when Obs.ctx_enabled ctxs.(0) ->
      let s = Pag_eval.Dag.stats rt in
      let reg = ctxs.(0).Obs.x_metrics in
      Obs.Metrics.add
        (Obs.Metrics.counter reg "dag.regions")
        s.Pag_eval.Dag.dg_regions;
      Obs.Metrics.add
        (Obs.Metrics.counter reg "dag.projected_slots")
        s.Pag_eval.Dag.dg_projected_slots;
      Obs.Metrics.add
        (Obs.Metrics.counter reg "dag.materialized_rids")
        s.Pag_eval.Dag.dg_materialized_rids
  | _ -> ());
  let worker_stats =
    Array.init m (fun i ->
        let st = stats.(i + 1) in
        {
          Worker.zero_stats with
          ws_dynamic_rules = st.Steal.st_fired;
          ws_graph_nodes = own_rids.(i + 1);
          ws_graph_edges = own_edges.(i + 1);
          ws_sends = sends.(i + 1);
          ws_idle_wait = st.Steal.st_idle;
        })
  in
  assemble opts ~transport:"sim" ~ctxs ~split ~fragments:m ~worker_stats
    ~attrs:!attrs ~time:!finish
    ~prov:(if opts.provenance then [ (prov, eng) ] else [])
    (sim_outcome sim ~fragments:m ~pids:(m + 1)
       ~sends:(fun pid -> if pid = 0 then m else sends.(pid))
       (Option.map Faults.stats injector))
    tree

let run_sim opts g plan tree =
  match opts.schedule with
  | `Steal -> run_sim_steal opts g tree
  | `Static | `Dynamic -> run_protocol sim_backend opts g plan tree

(* ------------------------- domains ------------------------- *)

module Chan = struct
  type 'a t = { q : 'a Queue.t; m : Mutex.t; c : Condition.t }

  let create () =
    { q = Queue.create (); m = Mutex.create (); c = Condition.create () }

  let push t v =
    Mutex.lock t.m;
    Queue.add v t.q;
    Condition.signal t.c;
    Mutex.unlock t.m

  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.q do
      Condition.wait t.c t.m
    done;
    let v = Queue.take t.q in
    Mutex.unlock t.m;
    v

  (* Stdlib [Condition] has no timed wait; poll instead. The 0.5 ms tick is
     far below the retransmission timeout it serves. *)
  let pop_timeout t d =
    let deadline = Unix.gettimeofday () +. d in
    let rec go () =
      Mutex.lock t.m;
      match Queue.take_opt t.q with
      | Some v ->
          Mutex.unlock t.m;
          Some v
      | None ->
          Mutex.unlock t.m;
          if Unix.gettimeofday () >= deadline then None
          else begin
            Unix.sleepf 0.0005;
            go ()
          end
    in
    go ()
end

(* Real-time counterparts of the simulator's timeouts: domain message
   latency is microseconds, so these sit orders of magnitude above it. *)
let dom_rto = 0.02

let dom_watchdog = 0.2

let dom_max_tries = 6

(* A wall-clock outcome. There is no network trace on domains: worker
   idle-wait measurements stand in for activity segments, and parser and
   librarian utilization is unknown. *)
let wall_outcome ~fragments ~pids ~horizon worker_stats faults =
  {
    oc_horizon = horizon;
    oc_rows =
      List.init pids (fun pid ->
          let active, idle, util, sends =
            if pid >= 1 && pid <= fragments then begin
              let s = worker_stats.(pid - 1) in
              let idle = Float.min horizon s.Worker.ws_idle_wait in
              let active = Float.max 0.0 (horizon -. idle) in
              ( active,
                idle,
                (if horizon > 0.0 then active /. horizon else 0.0),
                s.Worker.ws_sends )
            end
            else (0.0, horizon, 0.0, 0)
          in
          {
            Obs.Report.rm_pid = pid;
            rm_name = machine_name ~fragments pid;
            rm_active = active;
            rm_idle = idle;
            rm_util = util;
            rm_sends = sends;
            rm_max_queue = -1;
          });
    oc_messages = 0;
    oc_bytes = 0;
    oc_trace = None;
    oc_faults = faults;
  }

(* Work-stealing evaluation on real domains: delegate the whole schedule
   to {!Pag_eval.Engine.run_steal}, with owner affinity from the Split
   placement. The CPU does the actual work, so no cost model applies;
   [st_idle] counts backoff spin rounds, not seconds, and is reported
   through metrics only. *)
let run_domains_steal opts g tree =
  let t0 = Unix.gettimeofday () in
  let m = max 1 opts.machines in
  let split, store, _, dplan, eng = steal_substrate opts g tree in
  let gr = Eng.graph eng in
  (* The DAG runtime's projection bookkeeping is single-threaded, and
     [Engine.run_steal] owns the whole schedule on this transport — so
     [--dag] here materializes every region up front and hands run_steal
     the resulting per-occurrence table. No sharing win at runtime (the
     point of --dag on domains is result parity with the other
     transports); the class table still prices the instance build. *)
  (match dplan with
  | None -> ()
  | Some p ->
      let rt = Pag_eval.Dag.make p eng gr in
      while Pag_eval.Dag.force_stalled rt do
        ()
      done);
  let owner rid = fragment_of split eng rid mod m in
  (* One ring per domain (the shared engine's attached ring is not
     domain-safe); pids are domain ids, timestamps wall-clock relative to
     the run start. *)
  let provs =
    if opts.provenance then
      let arity = Pag_eval.Causal.arity_for g in
      Some (Array.init m (fun _ -> Prov.create ~arity ()))
    else None
  in
  let _fires, stats =
    Eng.run_steal ~domains:m ~owner ~uid_base:Uid.stride ?prov:provs
      ~prov_clock:(fun () -> Unix.gettimeofday () -. t0)
      eng gr
  in
  let t1 = Unix.gettimeofday () in
  let ctxs =
    make_ctxs opts ~n:(m + 1) ~clock:(fun () -> Unix.gettimeofday () -. t0)
  in
  Array.iteri
    (fun d st -> steal_metrics ctxs.(d + 1) ~idle:"steal.idle_spins" st)
    stats;
  let worker_stats =
    Array.map
      (fun (st : Steal.stats) ->
        { Worker.zero_stats with ws_dynamic_rules = st.Steal.st_fired })
      stats
  in
  assemble opts ~transport:"domains" ~ctxs ~split ~fragments:m ~worker_stats
    ~attrs:(ESt.root_attrs store) ~time:(t1 -. t0)
    ~prov:
      (match provs with
      | Some ps -> Array.to_list (Array.map (fun p -> (p, eng)) ps)
      | None -> [])
    (wall_outcome ~fragments:m ~pids:(m + 1) ~horizon:(t1 -. t0) worker_stats
       None)
    tree

let domains_backend opts _tree ~nfrags =
  let n = nfrags + 2 in
  let chans = Array.init n (fun _ -> Chan.create ()) in
  (* Crashed machines never start on the domains transport (crash times are
     a simulator notion); their mail is discarded unread. *)
  let crashed = Array.make n false in
  Option.iter
    (fun sp ->
      List.iter
        (fun (m, _t) -> if m >= 0 && m < n then crashed.(m) <- true)
        sp.Faults.fs_crashes)
    opts.faults;
  (* One fault injector and one reorder stash per machine: each is touched
     only by its owner's domain, keeping the PRNG streams race-free and
     per-sender deterministic. *)
  let injectors = Array.init n (fun _ -> Option.map Faults.make opts.faults) in
  let stashes = Array.init n (fun _ -> ref None) in
  let send_from src ~dst m =
    if not crashed.(dst) then
      match injectors.(src) with
      | None -> Chan.push chans.(dst) m
      | Some inj -> (
          let v = Faults.judge inj ~src ~dst in
          let stash = stashes.(src) in
          if v.Faults.v_drop then ()
          else if v.Faults.v_reorder && !stash = None then
            (* Hold this message back past the sender's next transmission. *)
            stash := Some (dst, m)
          else begin
            Chan.push chans.(dst) m;
            if v.Faults.v_dup then Chan.push chans.(dst) m;
            match !stash with
            | Some (sdst, sm) ->
                Chan.push chans.(sdst) sm;
                stash := None
            | None -> ()
          end)
  in
  let start = Unix.gettimeofday () in
  let clock () = Unix.gettimeofday () -. start in
  {
    bk_transport = "domains";
    bk_env =
      (fun id ->
        {
          Transport.e_id = id;
          e_delay = (fun _ -> ());
          e_send = (fun ~dst m -> send_from id ~dst m);
          e_recv = (fun () -> Chan.pop chans.(id));
          e_recv_timeout = (fun d -> Chan.pop_timeout chans.(id) d);
          e_time = Unix.gettimeofday;
          e_mark = (fun _ -> ());
          e_flush = (fun () -> ());
        });
    bk_launch =
      (fun bodies ->
        let spawned =
          List.filter_map
            (fun (pid, body) ->
              if pid = 0 || crashed.(pid) then None
              else Some (Domain.spawn body))
            bodies
        in
        List.iter (fun (pid, body) -> if pid = 0 then body ()) bodies;
        List.iter Domain.join spawned);
    bk_clock = clock;
    bk_rto = dom_rto;
    bk_max_tries = dom_max_tries;
    bk_watchdog = dom_watchdog;
    bk_prov_dwell = false (* wall clock advances in-firing *);
    bk_finish =
      (fun ~pids worker_stats ->
        let sum f =
          Array.fold_left
            (fun a -> function Some i -> a + f (Faults.stats i) | None -> a)
            0 injectors
        in
        let faults =
          Option.map
            (fun _ ->
              {
                Faults.st_dropped = sum (fun s -> s.Faults.st_dropped);
                st_duplicated = sum (fun s -> s.Faults.st_duplicated);
                st_delayed = sum (fun s -> s.Faults.st_delayed);
              })
            opts.faults
        in
        wall_outcome ~fragments:nfrags ~pids ~horizon:(clock ()) worker_stats
          faults);
  }

let run_domains opts g plan tree =
  match opts.schedule with
  | `Steal -> run_domains_steal opts g tree
  | `Static | `Dynamic -> run_protocol domains_backend opts g plan tree
