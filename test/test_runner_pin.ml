(* Pinned simulator results. Every value below was recorded from runs of
   the fragment protocol and the steal schedule. The simulator is
   deterministic, so a refactor of the run path that leaves the protocol
   alone must reproduce each one bit for bit: virtual time (as IEEE bits),
   wire totals, retransmissions, recovery and every per-worker counter. A
   changed value means the protocol, the cost model or the split plan
   changed. *)

open Pag_analysis
open Pag_parallel
open Pag_grammars
open Netsim

let plan_of g =
  match Kastens.analyze g with
  | Ok p -> p
  | Error f -> Alcotest.failf "analysis failed: %a" Kastens.pp_failure f

(* One worker's counters, slash-separated in [Worker.stats] field order:
   dynamic rules, static rules, visits, graph nodes, graph edges, sends,
   spine length, idle wait (IEEE bits), bytes flattened. *)
let worker_row (s : Worker.stats) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%Lx/%d" s.Worker.ws_dynamic_rules
    s.Worker.ws_static_rules s.Worker.ws_visits s.Worker.ws_graph_nodes
    s.Worker.ws_graph_edges s.Worker.ws_sends s.Worker.ws_spine_len
    (Int64.bits_of_float s.Worker.ws_idle_wait)
    s.Worker.ws_bytes_flattened

let fingerprint (r : Runner.result) =
  Printf.sprintf "t=%Lx msgs=%d bytes=%d retx=%d rec=%b ws=[%s]"
    (Int64.bits_of_float r.Runner.r_time)
    r.Runner.r_messages r.Runner.r_bytes r.Runner.r_retransmits
    r.Runner.r_recovered
    (String.concat " "
       (Array.to_list (Array.map worker_row r.Runner.r_worker_stats)))

(* The run matrix: every schedule with sharing off and on, then the static
   schedule without a librarian, under seeded drops and duplicates, and
   with an evaluator dead from the start (coordinator recovery). *)
let cases =
  let base = { Runner.default_options with Runner.machines = 3 } in
  let sched s dag = { base with Runner.schedule = s; use_dag = dag } in
  [
    ("static", sched `Static false);
    ("static+dag", sched `Static true);
    ("dynamic", sched `Dynamic false);
    ("dynamic+dag", sched `Dynamic true);
    ("steal", sched `Steal false);
    ("steal+dag", sched `Steal true);
    ("no-librarian", { base with Runner.use_librarian = false });
    ( "drop+dup",
      {
        base with
        Runner.faults =
          Some
            { Faults.none with Faults.fs_drop = 0.1; fs_dup = 0.1; fs_seed = 7 };
      } );
    ( "crash",
      {
        base with
        Runner.faults = Some { Faults.none with Faults.fs_crashes = [ (1, 0.0) ] };
      } );
  ]

let stackcode_run opts =
  let g = Stackcode_ag.grammar in
  let t =
    Stackcode_ag.random_program (Random.State.make [| 41 |]) ~depth:7 ~blocks:5
  in
  Runner.run_sim opts g (Some (plan_of g)) t

let primes_run opts =
  let prog = Pascal.Parser.parse_program (Lazy.force Test_hashcons.primes) in
  fst (Pascal.Driver.compile_parallel_sim opts prog)

let expected_stackcode =
  [
    ("static",
     "t=3fc17b500276d2c8 msgs=27 bytes=8023 retx=0 rec=false ws=[39/0/0/42/39/8/10/3fb9441a0b4400e2/611 18/238/120/26/28/9/4/3f87420634cd672c/1351 0/151/76/3/2/4/0/3f9e1a8fce3ebcd9/474]");
    ("static+dag",
     "t=3fc17b7ba1610e3a msgs=27 bytes=8003 retx=0 rec=false ws=[39/0/0/42/39/8/10/3fb943eb115b7217/611 18/238/120/26/28/9/4/3f8747e571df4074/1351 0/151/76/3/2/4/0/3f9e36a9e038ba60/474]");
    ("dynamic",
     "t=3fcc5cf5a45c6b41 msgs=27 bytes=8023 retx=0 rec=false ws=[39/0/0/42/39/8/10/3fc785b91204e546/611 256/0/0/260/288/9/64/3f87420634cd6730/1351 151/0/0/152/170/4/38/3fa93081a80b4c6a/474]");
    ("dynamic+dag",
     "t=3fcc5d4987328ed0 msgs=27 bytes=8003 retx=0 rec=false ws=[39/0/0/42/39/8/10/3fc785f21ce86e18/611 256/0/0/260/288/9/64/3f8747e571df4070/1351 151/0/0/152/170/4/38/3fa93e8eb1084b2c/474]");
    ("steal",
     "t=3fba99ce72bf3a32 msgs=68 bytes=7165 retx=0 rec=false ws=[95/0/0/39/39/15/0/3fa126e978d4fdf4/0 195/0/0/256/288/8/0/3f6cac083126e979/0 156/0/0/151/170/12/0/3f8fbe76c8b43958/0]");
    ("steal+dag",
     "t=3fbc2a1d09fc023d msgs=72 bytes=8712 retx=0 rec=false ws=[221/0/0/39/39/9/0/3f6cac083126e979/0 85/0/0/253/286/16/0/3fa2b020c49ba5e4/0 140/0/0/130/156/12/0/3f978d4fdf3b645b/0]");
    ("no-librarian",
     "t=3fc0ce032db1e9f3 msgs=13 bytes=7780 retx=0 rec=false ws=[39/0/0/42/39/3/10/3fb9441a0b4400e2/1440 18/238/120/26/28/4/4/3f87420634cd672c/1557 0/151/76/3/2/3/0/3f9e1a8fce3ebcd9/450]");
    ("drop+dup",
     "t=3fd54acc418c924b msgs=76 bytes=13654 retx=12 rec=false ws=[39/0/0/42/39/8/10/3fc87a46edfb1ac1/611 18/238/120/26/28/9/4/3fba6a15478fe18e/1351 0/151/76/3/2/4/0/3fbee6a76965f52a/474]");
    ("crash",
     "t=4049e26b81585a35 msgs=43 bytes=10736 retx=24 rec=true ws=[0/0/0/0/0/0/0/0/0 0/0/0/0/0/0/0/0/0 0/0/0/0/0/0/0/0/0]")
  ]

let expected_primes =
  [
    ("static",
     "t=3fd3966277c45cbb msgs=24 bytes=26543 retx=0 rec=false ws=[21/593/116/27/48/7/3/3fad40109147bb77/3674 14/703/145/23/26/7/2/3f8e0411dd7815c4/4193 0/528/142/4/3/4/0/3f83d5347a5b0ffc/2320]");
    ("static+dag",
     "t=3fd00b04e11050af msgs=24 bytes=24475 retx=0 rec=false ws=[21/494/106/27/48/7/3/3fa322ebbd52dc44/3674 14/552/127/23/26/7/2/3f8e21d96e9bbf10/4193 0/473/137/4/3/4/0/3f83e1c9b4139866/2320]");
    ("dynamic",
     "t=3fe1cd1b8c4d809a msgs=24 bytes=26543 retx=0 rec=false ws=[614/0/0/617/826/7/117/3fb50d3c28a539a4/3674 717/0/0/722/930/7/137/0/4193 528/0/0/530/690/4/117/3fb00a5771d6dcf4/2320]");
    ("dynamic+dag",
     "t=3fe1bdce11706aac msgs=24 bytes=24475 retx=0 rec=false ws=[614/0/0/617/826/7/117/3fb4b8aad6d8be40/3674 717/0/0/722/930/7/137/0/4193 528/0/0/530/690/4/117/3fb0083126e978da/2320]");
    ("steal",
     "t=3fd38adb90b4ee99 msgs=118 bytes=19393 retx=0 rec=false ws=[652/0/0/614/826/17/0/3f747ae147ae147b/0 574/0/0/717/930/23/0/3f92f1a9fbe76c8c/0 633/0/0/528/690/20/0/3f726e978d4fdf3c/0]");
    ("steal+dag",
     "t=3fd1587f1d169130 msgs=166 bytes=23156 retx=0 rec=false ws=[464/0/0/437/621/27/0/3f93f7ced916872c/0 469/0/0/422/607/29/0/3f8ba5e353f7ceda/0 488/0/0/435/578/28/0/3f7cac083126e97a/0]");
    ("no-librarian",
     "t=3fd33bded35f8e05 msgs=15 bytes=25158 retx=0 rec=false ws=[21/593/116/27/48/4/3/3fae1812457ce1cf/9286 14/703/145/23/26/5/2/3f8e0411dd7815c4/6253 0/528/142/4/3/3/0/3f83d5347a5b0ffc/2296]");
    ("drop+dup",
     "t=3fe6e22ff08893b6 msgs=74 bytes=36852 retx=12 rec=false ws=[21/593/116/27/48/7/3/3fd76c1bb20d2de4/3674 14/703/145/23/26/7/2/3fd45d67ba237ce0/4193 0/528/142/4/3/4/0/3fd3f33bcc5ee8c4/2320]");
    ("crash",
     "t=404a22c2ee26b9aa msgs=43 bytes=28127 retx=24 rec=true ws=[0/0/0/0/0/0/0/0/0 0/0/0/0/0/0/0/0/0 0/0/0/0/0/0/0/0/0]")
  ]

let check_fixture run expected () =
  List.iter
    (fun (name, opts) ->
      Alcotest.(check string) name (List.assoc name expected)
        (fingerprint (run opts)))
    cases

let suite =
  [
    ( "runner pin",
      [
        Alcotest.test_case "stackcode sim results pinned" `Quick
          (check_fixture stackcode_run expected_stackcode);
        Alcotest.test_case "primes sim results pinned" `Quick
          (check_fixture primes_run expected_primes);
      ] );
  ]
