(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark around its own calls into each layer;
   nothing inside the compiler is instrumented. Every span records its
   name, start, end, parent and the operation (one compile or one edit) it
   belongs to, plus the counts measured at the same boundary. Spans stay in
   memory until the run ends and are then written as Chrome-trace JSON. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_op : int;  (** operation id shared by every span of one compile/edit *)
  sp_parent : int;  (** -1 for an operation's root span *)
  sp_warm : bool;  (** opened during warm-up: kept in the trace, not measured *)
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_alloc : float;  (** bytes allocated by the main domain *)
  mutable sp_minor : int;
  mutable sp_major : int;
  mutable sp_counts : (string * float) list;
}

type t = {
  t0 : float;
  mutable spans : span list;  (** most recent first *)
  mutable next_id : int;
  mutable next_op : int;
  mutable stack : span list;  (** open spans, innermost first *)
  mutable warm : bool;
}

let create () =
  { t0 = Unix.gettimeofday (); spans = []; next_id = 0; next_op = 0; stack = []; warm = true }

(* Opening a root span (empty stack) starts a new operation. *)
let with_span t name f =
  let parent, op =
    match t.stack with
    | p :: _ -> (p.sp_id, p.sp_op)
    | [] ->
        t.next_op <- t.next_op + 1;
        (-1, t.next_op)
  in
  let gc0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let sp =
    {
      sp_id = t.next_id;
      sp_name = name;
      sp_op = op;
      sp_parent = parent;
      sp_warm = t.warm;
      sp_start = Unix.gettimeofday ();
      sp_stop = nan;
      sp_alloc = 0.;
      sp_minor = 0;
      sp_major = 0;
      sp_counts = [];
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- sp :: t.stack;
  let finish () =
    sp.sp_stop <- Unix.gettimeofday ();
    let gc1 = Gc.quick_stat () in
    sp.sp_alloc <- Gc.allocated_bytes () -. a0;
    sp.sp_minor <- gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    sp.sp_major <- gc1.Gc.major_collections - gc0.Gc.major_collections;
    t.stack <- List.tl t.stack;
    t.spans <- sp :: t.spans
  in
  match f sp with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let count sp name v = sp.sp_counts <- (name, v) :: sp.sp_counts

let dur sp = sp.sp_stop -. sp.sp_start

let spans t = List.rev t.spans

(* Self time: the span's duration minus the part of it covered by its
   direct children (children run one after another, never overlapping). *)
let self_times t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      if sp.sp_parent >= 0 then begin
        let prev = Option.value ~default:0. (Hashtbl.find_opt child sp.sp_parent) in
        Hashtbl.replace child sp.sp_parent (prev +. dur sp)
      end)
    t.spans;
  List.map
    (fun sp ->
      (sp, dur sp -. Option.value ~default:0. (Hashtbl.find_opt child sp.sp_id)))
    (spans t)

let write_chrome t path =
  let oc = open_out path in
  let us x = (x -. t.t0) *. 1e6 in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i sp ->
      let counts =
        List.rev_map
          (fun (k, v) -> Printf.sprintf ",%S:%.17g" k v)
          sp.sp_counts
        |> String.concat ""
      in
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"op\":%d,\"parent\":%d,\"warm\":%b,\"alloc_bytes\":%.0f,\"minor_gcs\":%d,\"major_gcs\":%d%s}}\n"
        (if i = 0 then "" else ",")
        sp.sp_name (us sp.sp_start) (dur sp *. 1e6) sp.sp_id sp.sp_op
        sp.sp_parent sp.sp_warm sp.sp_alloc sp.sp_minor sp.sp_major counts)
    (spans t);
  output_string oc "]}\n";
  close_out oc
