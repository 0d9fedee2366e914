(* Tests for the lazy memoized stage graph (Pvtol_core.Stage) and its
   trace (Pvtol_util.Trace). *)

module Sg = Pvtol_core.Stage
module Trace = Pvtol_util.Trace

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- memoization --- *)

let test_node_runs_once () =
  let g = Sg.create () in
  let runs = ref 0 in
  let n =
    Sg.node g ~name:"a" (fun () ->
        incr runs;
        42)
  in
  Alcotest.(check (option int)) "not computed yet" None (Sg.peek n);
  Alcotest.(check int) "value" 42 (Sg.get n);
  Alcotest.(check int) "again" 42 (Sg.get n);
  Alcotest.(check int) "computed once" 1 !runs;
  Alcotest.(check (option int)) "peek sees it" (Some 42) (Sg.peek n);
  Alcotest.(check int) "one span" 1 (Trace.count (Sg.trace g) "a")

let test_dependent_nodes_share () =
  let g = Sg.create () in
  let runs = ref 0 in
  let base =
    Sg.node g ~name:"base" (fun () ->
        incr runs;
        10)
  in
  let left = Sg.node g ~name:"left" ~deps:[ "base" ] (fun () -> Sg.get base + 1) in
  let right = Sg.node g ~name:"right" ~deps:[ "base" ] (fun () -> Sg.get base + 2) in
  Alcotest.(check int) "left" 11 (Sg.get left);
  Alcotest.(check int) "right" 12 (Sg.get right);
  Alcotest.(check int) "diamond base computed once" 1 !runs

let test_duplicate_name_rejected () =
  let g = Sg.create () in
  let _ = Sg.node g ~name:"x" (fun () -> 0) in
  match Sg.node g ~name:"x" (fun () -> 1) with
  | _ -> Alcotest.fail "duplicate node name must be rejected"
  | exception Invalid_argument _ -> ()

(* --- keyed nodes --- *)

let test_keyed_isolation () =
  let g = Sg.create () in
  let runs = Hashtbl.create 4 in
  let k =
    Sg.keyed g ~name:"mc" ~key_label:string_of_int (fun key ->
        Hashtbl.replace runs key (1 + Option.value ~default:0 (Hashtbl.find_opt runs key));
        key * key)
  in
  Alcotest.(check int) "key 2" 4 (Sg.get_keyed k 2);
  Alcotest.(check int) "key 3" 9 (Sg.get_keyed k 3);
  Alcotest.(check int) "key 2 again" 4 (Sg.get_keyed k 2);
  Alcotest.(check int) "key 2 ran once" 1 (Hashtbl.find runs 2);
  Alcotest.(check int) "key 3 ran once" 1 (Hashtbl.find runs 3);
  Alcotest.(check (list string)) "computed keys" [ "2"; "3" ] (Sg.computed_keys k);
  Alcotest.(check int) "span per key" 1 (Trace.count (Sg.trace g) "mc[2]")

let test_keyed_many () =
  let g = Sg.create () in
  let calls = ref [] in
  let sq keys =
    calls := keys :: !calls;
    List.map (fun key -> key * key) keys
  in
  let k =
    Sg.keyed g ~name:"sq" ~key_label:string_of_int
      ~deps:(fun key -> [ "base"; "in" ^ string_of_int (key mod 2) ])
      (fun key -> List.hd (sq [ key ]))
  in
  Alcotest.(check int) "key 2 alone" 4 (Sg.get_keyed k 2);
  (* Only the instances not yet forced are computed, together, each
     label once. *)
  Alcotest.(check (list int)) "values in key order" [ 1; 4; 9; 9 ]
    (Sg.get_keyed_many k [ 1; 2; 3; 3 ] ~compute:sq);
  Alcotest.(check (list (list int))) "one call per group" [ [ 1; 3 ]; [ 2 ] ] !calls;
  Alcotest.(check int) "group span" 1 (Trace.count (Sg.trace g) "sq[1,3]");
  (match Trace.find (Sg.trace g) "sq[1,3]" with
  | Some s ->
    Alcotest.(check (list string)) "union of deps" [ "base"; "in1" ] s.Trace.deps
  | None -> Alcotest.fail "group span missing");
  (* Memoized per key: nothing recomputes. *)
  Alcotest.(check int) "key 3 memoized" 9 (Sg.get_keyed k 3);
  Alcotest.(check (list int)) "all memoized" [ 1; 4; 9 ]
    (Sg.get_keyed_many k [ 1; 2; 3 ] ~compute:sq);
  Alcotest.(check int) "no further calls" 2 (List.length !calls);
  Alcotest.(check (list string)) "computed keys" [ "1"; "2"; "3" ]
    (Sg.computed_keys k);
  Alcotest.(check (list string)) "no duplicates" [] (Trace.duplicates (Sg.trace g));
  (* A failing group fails every claimed instance, once; a group that
     returns the wrong number of values is an error too. *)
  let runs = ref 0 in
  let boom _ =
    incr runs;
    failwith "boom"
  in
  (match Sg.get_keyed_many k [ 4; 5 ] ~compute:boom with
  | _ -> Alcotest.fail "expected failure"
  | exception Sg.Stage_error e ->
    Alcotest.(check string) "group named" "sq[4,5]" e.Sg.stage);
  (match Sg.result_keyed k 5 with
  | Ok _ -> Alcotest.fail "expected memoized failure"
  | Error e -> Alcotest.(check string) "same error" "sq[4,5]" e.Sg.stage);
  Alcotest.(check int) "failed group ran once" 1 !runs;
  (match Sg.get_keyed_many k [ 6; 7 ] ~compute:(fun _ -> [ 0 ]) with
  | _ -> Alcotest.fail "expected a length error"
  | exception Sg.Stage_error e ->
    Alcotest.(check bool) "length error" true
      (contains ~sub:"wrong number" e.Sg.message));
  (* A group that forces one of its own instances is a cycle, not a
     deadlock. *)
  match
    Sg.get_keyed_many k [ 8; 9 ] ~compute:(fun keys ->
        List.map (fun key -> Sg.get_keyed k key) keys)
  with
  | _ -> Alcotest.fail "expected a cycle"
  | exception Sg.Stage_error e ->
    Alcotest.(check string) "cycle" "dependency cycle" e.Sg.message

(* --- tracing --- *)

let test_trace_dependency_order () =
  let g = Sg.create () in
  let a = Sg.node g ~name:"a" (fun () -> 1) in
  let b = Sg.node g ~name:"b" ~deps:[ "a" ] (fun () -> Sg.get a + 1) in
  let c = Sg.node g ~name:"c" ~deps:[ "b" ] (fun () -> Sg.get b + 1) in
  Alcotest.(check int) "c" 3 (Sg.get c);
  let names = List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans (Sg.trace g)) in
  (* Completion order: upstream finishes before what forced it. *)
  Alcotest.(check (list string)) "completion order" [ "a"; "b"; "c" ] names;
  (match Trace.find (Sg.trace g) "c" with
  | Some s ->
    Alcotest.(check (list string)) "declared deps recorded" [ "b" ] s.Trace.deps;
    Alcotest.(check bool) "ok" true s.Trace.ok;
    Alcotest.(check bool) "duration sane" true (s.Trace.dur_s >= 0.0)
  | None -> Alcotest.fail "span c missing");
  Alcotest.(check (list string)) "no duplicates" [] (Trace.duplicates (Sg.trace g))

let test_trace_json () =
  let g = Sg.create () in
  let a = Sg.node g ~name:"stage one" ~deps:[ "up" ] (fun () -> ()) in
  Sg.get a;
  let json = Trace.to_json (Sg.trace g) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json mentions %s" needle)
        true
        (contains ~sub:needle json))
    [ "\"stage one\""; "\"up\""; "\"dur_s\""; "\"ok\"" ]

(* --- error boundaries --- *)

let test_error_names_failing_stage () =
  let g = Sg.create () in
  let runs = ref 0 in
  let bad =
    Sg.node g ~name:"parse" (fun () ->
        incr runs;
        failwith "bad liberty file")
  in
  let mid = Sg.node g ~name:"mid" ~deps:[ "parse" ] (fun () -> Sg.get bad + 1) in
  let top = Sg.node g ~name:"top" ~deps:[ "mid" ] (fun () -> Sg.get mid + 1) in
  (match Sg.result top with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e ->
    Alcotest.(check string) "failing stage named" "parse" e.Sg.stage;
    Alcotest.(check (list string)) "forcing chain outermost first"
      [ "top"; "mid"; "parse" ] e.Sg.chain;
    Alcotest.(check bool) "message kept" true
      (contains ~sub:"bad liberty file" e.Sg.message));
  (* The error is memoized: re-forcing re-raises without recomputing. *)
  (match Sg.result bad with
  | Ok _ -> Alcotest.fail "expected memoized failure"
  | Error e -> Alcotest.(check string) "same stage" "parse" e.Sg.stage);
  Alcotest.(check int) "failed stage ran once" 1 !runs;
  (* The failed span is recorded with ok = false. *)
  match Trace.find (Sg.trace g) "parse" with
  | Some s -> Alcotest.(check bool) "span not ok" false s.Trace.ok
  | None -> Alcotest.fail "failed span missing from trace"

let test_cycle_detected () =
  let g = Sg.create () in
  let rec cell = lazy (Sg.node g ~name:"loop" (fun () -> Sg.get (Lazy.force cell))) in
  match Sg.result (Lazy.force cell) with
  | Ok _ -> Alcotest.fail "cycle must not terminate normally"
  | Error e ->
    Alcotest.(check string) "cycle attributed" "loop" e.Sg.stage;
    Alcotest.(check bool) "says cycle" true
      (contains ~sub:"cycle" e.Sg.message)

(* --- per-graph families --- *)

let squares : (int, int) Sg.keyed Type.Id.t = Type.Id.make ()

let test_family_per_graph () =
  let family g =
    Sg.family g squares ~name:"sq" ~deps:(fun _ -> [])
      ~key_label:string_of_int
  in
  let g1 = Sg.create () and g2 = Sg.create () in
  let runs = ref 0 in
  let square k =
    incr runs;
    k * k
  in
  Alcotest.(check int) "computed" 9 (Sg.get_keyed ~compute:square (family g1) 3);
  (* The second lookup on [g1] finds the same family: a memo hit, even
     with a compute that would disagree. *)
  Alcotest.(check int) "memoized" 9
    (Sg.get_keyed ~compute:(fun _ -> -1) (family g1) 3);
  Alcotest.(check int) "computed once" 1 !runs;
  (* Another graph has its own family and its own memo. *)
  Alcotest.(check int) "other graph" 16
    (Sg.get_keyed ~compute:(fun k -> k + 13) (family g2) 3);
  Alcotest.(check (list string)) "g1 keys" [ "3" ] (Sg.computed_keys (family g1));
  Alcotest.(check int) "one span per graph" 1 (Trace.count (Sg.trace g2) "sq[3]");
  (* No compute of its own: forcing without one is a stage error, and
     the family's name is taken on its graph. *)
  (match Sg.result_keyed (family g1) 4 with
  | Ok _ -> Alcotest.fail "forced without compute"
  | Error e ->
    Alcotest.(check bool) "names the family" true
      (contains ~sub:"without ~compute" e.Sg.message));
  match Sg.node g2 ~name:"sq" (fun () -> 0) with
  | _ -> Alcotest.fail "family name reused"
  | exception Invalid_argument _ -> ()

(* --- concurrency --- *)

let test_concurrent_force_computes_once () =
  let g = Sg.create () in
  let runs = Atomic.make 0 in
  let n =
    Sg.node g ~name:"slow" (fun () ->
        Atomic.incr runs;
        (* Give the other domains time to pile onto the same cell. *)
        Unix.sleepf 0.02;
        99)
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn (fun () -> Sg.get n)) in
  let results = Array.map Domain.join domains in
  Array.iter (fun v -> Alcotest.(check int) "same value" 99 v) results;
  Alcotest.(check int) "computed once under contention" 1 (Atomic.get runs);
  Alcotest.(check int) "one span" 1 (Trace.count (Sg.trace g) "slow")

let suite =
  ( "stage",
    [
      Alcotest.test_case "node runs once" `Quick test_node_runs_once;
      Alcotest.test_case "diamond shares base" `Quick test_dependent_nodes_share;
      Alcotest.test_case "duplicate name rejected" `Quick test_duplicate_name_rejected;
      Alcotest.test_case "keyed isolation" `Quick test_keyed_isolation;
      Alcotest.test_case "keyed group force" `Quick test_keyed_many;
      Alcotest.test_case "families live on their graph" `Quick
        test_family_per_graph;
      Alcotest.test_case "trace dependency order" `Quick test_trace_dependency_order;
      Alcotest.test_case "trace json" `Quick test_trace_json;
      Alcotest.test_case "error names failing stage" `Quick test_error_names_failing_stage;
      Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
      Alcotest.test_case "concurrent force" `Quick test_concurrent_force_computes_once;
    ] )
