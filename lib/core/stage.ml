(* Lazy memoized stage graph.  See stage.mli for the contract. *)

module Trace = Pvtol_util.Trace
module Metrics = Pvtol_util.Metrics

(* Memo hits vs. computes: hit = the cell was already Done/Failed when
   forced; compute = this force ran the stage function.  Waiting on a
   Running cell counts as neither (the computing force owns it). *)
let m_memo_hits = Metrics.counter "stage_memo_hits_total"
let m_computes = Metrics.counter "stage_computes_total"

type error = {
  stage : string;
  chain : string list;
  message : string;
}

exception Stage_error of error

let error_message e =
  Printf.sprintf "stage %S failed (forced via %s): %s" e.stage
    (String.concat " -> " e.chain)
    e.message

let () =
  Printexc.register_printer (function
    | Stage_error e -> Some (error_message e)
    | _ -> None)

(* A typed entry of a graph's family table: the value stored under an
   identifier has the identifier's type. *)
type family = Family : 'a Type.Id.t * 'a -> family

(* A graph owns its node names and the keyed families declared on it
   by {!family}, so a family lives exactly as long as its graph. *)
type graph = {
  trace : Trace.t;
  registry : Mutex.t;
  mutable names : string list;
  families_lock : Mutex.t;
  mutable families : family list;
}

let create ?trace () =
  let trace = match trace with Some t -> t | None -> Trace.create () in
  { trace; registry = Mutex.create (); names = [];
    families_lock = Mutex.create (); families = [] }

let trace g = g.trace

let register g name =
  Mutex.lock g.registry;
  let dup = List.mem name g.names in
  if not dup then g.names <- name :: g.names;
  Mutex.unlock g.registry;
  if dup then invalid_arg (Printf.sprintf "Stage: duplicate node name %S" name)

(* The chain of node names the current domain is forcing, innermost
   first.  Per-domain, so keyed nodes computed on pool workers get
   their own (short) chains. *)
let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* [Running d]: domain [d] is computing the cell. *)
type 'a state = Pending | Running of Domain.id | Done of 'a | Failed of error

type 'a cell = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable state : 'a state;
}

let new_cell () =
  { lock = Mutex.create (); cond = Condition.create (); state = Pending }

(* Store a finished computation in [cell], waking any domain waiting
   on it. *)
let set_cell cell st =
  Mutex.lock cell.lock;
  cell.state <- st;
  Condition.broadcast cell.cond;
  Mutex.unlock cell.lock

(* Run [compute], a computation this domain has claimed, as the stage
   [name]: traced, on the forcing chain, with any exception turned into
   the stage's [Stage_error].  [finish] stores the outcome. *)
let run_claimed g ~name ~deps ~finish compute =
  let stack = Domain.DLS.get stack_key in
  stack := name :: !stack;
  let fail e =
    stack := List.tl !stack;
    finish (Error e);
    raise (Stage_error e)
  in
  match Trace.span g.trace ~name ~deps compute with
  | v ->
    stack := List.tl !stack;
    finish (Ok v);
    v
  | exception Stage_error e ->
    (* Already attributed to the stage that actually failed. *)
    fail e
  | exception exn ->
    fail { stage = name; chain = List.rev !stack; message = Printexc.to_string exn }

(* Wait for a cell another force owns or has finished: its memoized
   value or error.  Called with [cell.lock] held; [first] is false once
   the wait has slept (a memo hit counts only if nothing was pending).
   Re-entrant forcing from the same domain — also of an instance its
   group computation claimed — is a dependency cycle. *)
let rec await cell ~name ~first =
  match cell.state with
  | Done v ->
    if first then Metrics.incr m_memo_hits;
    Mutex.unlock cell.lock;
    v
  | Failed e ->
    if first then Metrics.incr m_memo_hits;
    Mutex.unlock cell.lock;
    raise (Stage_error e)
  | Running owner ->
    (* Waiting on a cell this very domain is computing can never end:
       the force re-entered its own computation. *)
    if owner = Domain.self () then begin
      let stack = Domain.DLS.get stack_key in
      Mutex.unlock cell.lock;
      let chain = List.rev (name :: !stack) in
      raise (Stage_error { stage = name; chain; message = "dependency cycle" })
    end;
    Condition.wait cell.cond cell.lock;
    await cell ~name ~first:false
  | Pending -> assert false

(* Claim [cell] if nobody has forced it yet: [true] if the caller must
   now compute it. *)
let claim cell =
  Mutex.lock cell.lock;
  let pending = match cell.state with Pending -> true | _ -> false in
  if pending then begin
    Metrics.incr m_computes;
    cell.state <- Running (Domain.self ())
  end;
  Mutex.unlock cell.lock;
  pending

(* Force one cell: memoized value or error; computes at most once.  A
   concurrent forcing domain blocks until the computing domain stores a
   result. *)
let force_cell g cell ~name ~deps compute =
  if claim cell then
    run_claimed g ~name ~deps compute ~finish:(function
      | Ok v -> set_cell cell (Done v)
      | Error e -> set_cell cell (Failed e))
  else begin
    Mutex.lock cell.lock;
    await cell ~name ~first:true
  end

type 'a node = {
  graph : graph;
  name : string;
  deps : string list;
  compute : unit -> 'a;
  cell : 'a cell;
}

let node g ~name ?(deps = []) compute =
  register g name;
  { graph = g; name; deps; compute; cell = new_cell () }

let name n = n.name
let get n = force_cell n.graph n.cell ~name:n.name ~deps:n.deps n.compute

let result n =
  match get n with v -> Ok v | exception Stage_error e -> Error e

let peek n =
  Mutex.lock n.cell.lock;
  let v = match n.cell.state with Done v -> Some v | _ -> None in
  Mutex.unlock n.cell.lock;
  v

type ('k, 'a) keyed = {
  kgraph : graph;
  kname : string;
  kdeps : 'k -> string list;
  key_label : 'k -> string;
  kcompute : 'k -> 'a;
  table : (string, 'a cell) Hashtbl.t;
  table_lock : Mutex.t;
}

let keyed g ~name ?(deps = fun _ -> []) ~key_label compute =
  register g name;
  {
    kgraph = g;
    kname = name;
    kdeps = deps;
    key_label;
    kcompute = compute;
    table = Hashtbl.create 8;
    table_lock = Mutex.create ();
  }

let family (type k a) g (id : (k, a) keyed Type.Id.t) ~name ~deps ~key_label
    : (k, a) keyed =
  let rec find : family list -> (k, a) keyed option = function
    | [] -> None
    | Family (id', k) :: rest -> (
      match Type.Id.provably_equal id id' with
      | Some Type.Equal -> Some k
      | None -> find rest)
  in
  Mutex.protect g.families_lock (fun () ->
      match find g.families with
      | Some k -> k
      | None ->
        let k =
          keyed g ~name ~deps ~key_label (fun _ ->
              invalid_arg
                (Printf.sprintf "Stage: family %S forced without ~compute" name))
        in
        g.families <- Family (id, k) :: g.families;
        k)

let instance_name k key = k.kname ^ "[" ^ k.key_label key ^ "]"

(* The cells of [keys]' instances, with their labels, created as
   needed. *)
let cells_of k keys =
  Mutex.lock k.table_lock;
  let cells =
    List.map
      (fun key ->
        let label = k.key_label key in
        match Hashtbl.find_opt k.table label with
        | Some c -> (key, label, c)
        | None ->
          let c = new_cell () in
          Hashtbl.add k.table label c;
          (key, label, c))
      keys
  in
  Mutex.unlock k.table_lock;
  cells

let get_keyed ?compute k key =
  let cell =
    match cells_of k [ key ] with [ (_, _, c) ] -> c | _ -> assert false
  in
  let compute = Option.value compute ~default:k.kcompute in
  force_cell k.kgraph cell ~name:(instance_name k key) ~deps:(k.kdeps key)
    (fun () -> compute key)

let get_keyed_many k keys ~compute =
  let instances = cells_of k keys in
  (* Claim every pending instance, each label once. *)
  let claimed =
    List.rev
      (List.fold_left
         (fun acc ((_, label, cell) as inst) ->
           if (not (List.exists (fun (_, l, _) -> l = label) acc)) && claim cell
           then inst :: acc
           else acc)
         [] instances)
  in
  let computed =
    match claimed with
    | [] -> []
    | _ ->
      let ckeys = List.map (fun (key, _, _) -> key) claimed in
      let labels = List.map (fun (_, label, _) -> label) claimed in
      let cells = List.map (fun (_, _, cell) -> cell) claimed in
      let name = k.kname ^ "[" ^ String.concat "," labels ^ "]" in
      let deps =
        List.fold_left
          (fun acc key ->
            acc @ List.filter (fun d -> not (List.mem d acc)) (k.kdeps key))
          [] ckeys
      in
      let compute () =
        let vs = compute ckeys in
        if List.compare_lengths vs cells <> 0 then
          invalid_arg
            "Stage: a group compute returned the wrong number of values";
        vs
      in
      List.combine labels
        (run_claimed k.kgraph ~name ~deps compute ~finish:(function
          | Ok vs -> List.iter2 (fun cell v -> set_cell cell (Done v)) cells vs
          | Error e -> List.iter (fun cell -> set_cell cell (Failed e)) cells))
  in
  List.map
    (fun (key, label, cell) ->
      match List.assoc_opt label computed with
      | Some v -> v
      | None ->
        Mutex.lock cell.lock;
        await cell ~name:(instance_name k key) ~first:true)
    instances

let result_keyed k key =
  match get_keyed k key with v -> Ok v | exception Stage_error e -> Error e

let computed_keys k =
  Mutex.lock k.table_lock;
  let keys =
    Hashtbl.fold
      (fun label cell acc ->
        match cell.state with Done _ -> label :: acc | _ -> acc)
      k.table []
  in
  Mutex.unlock k.table_lock;
  List.sort String.compare keys
